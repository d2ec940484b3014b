import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mecheck import cli
from mecheck.rsl.parser import MAX_NESTING
from mecheck.rulepack import default_rules_dir

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

CLEAN = {
    "ctx.xml": "<beans/>",
    "src/com/x/App.java": "package com.x;\n\npublic class App {\n    public void go() { }\n}\n",
}

ONE_RULE = 'Rule probe-one {\n  assert (isEmpty("")) { msg("never"); }\n}\n'


def write_project(tmp_path, files, sub="proj"):
    root = tmp_path / sub
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def test_clean_project_exits_zero(tmp_path, capsys):
    root = write_project(tmp_path, CLEAN)
    assert cli.main(["--project", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("0 findings across 15 rules\n")


def test_findings_exit_one_with_text_lines(capsys):
    root = FIXTURES / "r2" / "buggy-1"
    assert cli.main(["--project", str(root)]) == 1
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("RULE r2-bean-class-exists src/main/resources/beans.xml:")
    assert "com.fix.r2.dao.BookDaoImpl" in lines[0]
    assert lines[1] == "1 findings across 15 rules"


def test_text_line_shape(capsys):
    root = FIXTURES / "r6" / "buggy-1"
    cli.main(["--project", str(root)])
    line = capsys.readouterr().out.splitlines()[0]
    head, msg = line.split(": ", 1)
    tag, rule_name, location = head.split(" ")
    assert tag == "RULE"
    assert rule_name == "r6-method-exists"
    path, line_no = location.rsplit(":", 1)
    assert path.endswith(".xml")
    assert int(line_no) > 0
    assert "myPostConstruct" in msg


def test_no_fail_flag(capsys):
    root = FIXTURES / "r2" / "buggy-1"
    assert cli.main(["--project", str(root), "--no-fail"]) == 0
    out = capsys.readouterr().out
    assert "1 findings" in out


def test_json_format(capsys):
    root = FIXTURES / "r2" / "buggy-1"
    assert cli.main(["--project", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"reports", "summary", "warnings", "diagnostics"}
    assert payload["warnings"] == payload["diagnostics"] == []
    assert payload["summary"]["reports"] == 1
    assert payload["summary"]["rulesExecuted"] == 15
    assert isinstance(payload["summary"]["elapsedMs"], int)
    (report,) = payload["reports"]
    assert set(report) == {"rule", "file", "line", "message"}
    assert report["rule"] == "r2-bean-class-exists"
    assert report["file"] == "src/main/resources/beans.xml"
    assert report["line"] > 0


FAILING_RULE = 'Rule probe-fail {\n  class c = locateClassFQN("com.x.Nowhere");\n}\n'


def test_json_carries_the_warnings_and_rule_errors_stderr_shows(tmp_path, capsys):
    root = write_project(tmp_path, {**CLEAN, "bad.xml": "<beans><bean></beans>"})
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "fail.rsl").write_text(FAILING_RULE)
    (rules / "one.rsl").write_text(ONE_RULE)
    assert cli.main(["--project", str(root), "--rules", str(rules)]) == 0
    text_out, err = capsys.readouterr()
    assert cli.main(["--project", str(root), "--rules", str(rules), "--format", "json"]) == 0
    out, json_err = capsys.readouterr()
    assert json_err == err
    payload = json.loads(out)
    assert payload["reports"] == []
    assert payload["summary"]["rulesExecuted"] == 2
    (warning,) = payload["warnings"]
    (diagnostic,) = payload["diagnostics"]
    assert warning.startswith("bad.xml: skipped malformed XML: ")
    assert diagnostic == ("rule probe-fail failed at line 2, column 13: "
                          "'locateClassFQN': no class named com.x.Nowhere")
    assert err.splitlines() == [f"mecheck: warning: {warning}",
                                f"mecheck: rule error: {diagnostic}"]
    assert text_out == "0 findings across 2 rules\n"


def test_text_output_is_deterministic(capsys):
    root = FIXTURES / "combined-clean"
    cli.main(["--project", str(root)])
    first = capsys.readouterr().out
    cli.main(["--project", str(root)])
    second = capsys.readouterr().out
    assert first == second


def test_missing_project_is_usage_error(tmp_path, capsys):
    assert cli.main(["--project", str(tmp_path / "ghost")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_bad_rules_dir_is_usage_error(tmp_path, capsys):
    root = write_project(tmp_path, CLEAN)
    assert cli.main(["--project", str(root), "--rules", str(tmp_path / "norules")]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "--project" in capsys.readouterr().out


def test_custom_rules_dir(tmp_path, capsys):
    root = write_project(tmp_path, CLEAN)
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "one.rsl").write_text(ONE_RULE)
    assert cli.main(["--project", str(root), "--rules", str(rules)]) == 0
    assert "0 findings across 1 rules" in capsys.readouterr().out


def test_rules_env_fallback(tmp_path, capsys, monkeypatch):
    root = write_project(tmp_path, CLEAN)
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "one.rsl").write_text(ONE_RULE)
    monkeypatch.setenv("MECHECK_RULES", str(rules))
    assert cli.main(["--project", str(root)]) == 0
    assert "across 1 rules" in capsys.readouterr().out


def test_rules_flag_beats_env(tmp_path, capsys, monkeypatch):
    root = write_project(tmp_path, CLEAN)
    env_rules = tmp_path / "env-rules"
    env_rules.mkdir()
    (env_rules / "one.rsl").write_text(ONE_RULE)
    flag_rules = tmp_path / "flag-rules"
    flag_rules.mkdir()
    (flag_rules / "a.rsl").write_text(ONE_RULE.replace("probe-one", "probe-a"))
    (flag_rules / "b.rsl").write_text(ONE_RULE.replace("probe-one", "probe-b"))
    monkeypatch.setenv("MECHECK_RULES", str(env_rules))
    assert cli.main(["--project", str(root), "--rules", str(flag_rules)]) == 0
    assert "across 2 rules" in capsys.readouterr().out


def test_lib_patterns_override_flips_r2(tmp_path, capsys):
    root = FIXTURES / "r2" / "buggy-1"
    patterns = tmp_path / "libs.txt"
    patterns.write_text("^com\\.fix\\..+$\n")
    assert cli.main(["--project", str(root), "--lib-patterns", str(patterns)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_bad_lib_patterns_file_is_usage_error(tmp_path, capsys):
    root = write_project(tmp_path, CLEAN)
    patterns = tmp_path / "libs.txt"
    patterns.write_text("([unclosed\n")
    assert cli.main(["--project", str(root), "--lib-patterns", str(patterns)]) == 2
    assert "error" in capsys.readouterr().err


def test_model_warnings_go_to_stderr(tmp_path, capsys):
    files = dict(CLEAN)
    files["broken.xml"] = "<beans><bean></beans>"
    root = write_project(tmp_path, files)
    assert cli.main(["--project", str(root)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "broken.xml" in captured.err
    assert "warning" not in captured.out


def test_rule_runtime_error_is_diagnostic_not_crash(tmp_path, capsys):
    root = write_project(tmp_path, CLEAN)
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "boom.rsl").write_text(
        'Rule always-boom {\n  class c = locateClassFQN("no.such.Thing");\n}\n'
    )
    (rules / "fine.rsl").write_text(ONE_RULE)
    assert cli.main(["--project", str(root), "--rules", str(rules)]) == 0
    captured = capsys.readouterr()
    assert "rule error" in captured.err
    assert "always-boom" in captured.err
    assert "0 findings across 2 rules" in captured.out


def assert_condition(cond):
    return f'Rule probe {{\n  assert ({cond}) {{ msg("never"); }}\n}}\n'


# isEmpty's argument sits two levels below the assert statement's level.
AT_BOUND = MAX_NESTING - 2


@pytest.mark.parametrize(
    "rule, code, err",
    [
        ('Rule digit {\n  String x = substring("abc", ², 1);\n}\n', 2, "unexpected character '²'"),
        (assert_condition("(" * 250 + 'isEmpty("")' + ")" * 250), 2, "levels of nesting"),
        (assert_condition("NOT " * 900 + 'isEmpty("")'), 2, "levels of nesting"),
        (assert_condition("(" * AT_BOUND + 'isEmpty("")' + ")" * AT_BOUND), 0, ""),
        (assert_condition("NOT " * AT_BOUND + 'isEmpty("")'), 0, ""),
        ('Rule huge {\n  String x = substring("abc", ' + "9" * 5000 + ', 1);\n}\n', 2,
         f"expected an integer of at most {sys.get_int_max_str_digits()} digits, "
         f"found '{'9' * 5000}' at line 2, column 31"),
    ],
    ids=["non-decimal-digit", "250-parens", "900-nots", "parens-at-bound", "nots-at-bound",
         "5000-digit-int"],
)
def test_rule_pack_mistakes_exit_two_at_load(tmp_path, capsys, rule, code, err):
    root = write_project(tmp_path, CLEAN)
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "probe.rsl").write_text(rule, encoding="utf-8")
    assert cli.main(["--project", str(root), "--rules", str(rules)]) == code
    captured = capsys.readouterr()
    assert err in captured.err
    assert captured.err.startswith("mecheck: error: probe.rsl: ") == bool(err)
    assert ("0 findings across 1 rules" in captured.out) == (code == 0)


def test_rule_files_may_start_with_a_bom(tmp_path, capsys):
    rules = tmp_path / "rules"
    rules.mkdir()
    for path in default_rules_dir().glob("*.rsl"):
        (rules / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for fixture in ("r2/buggy-1", "r15/buggy-1", "combined-clean"):
        root = FIXTURES / fixture
        code = cli.main(["--project", str(root)])
        shipped = capsys.readouterr()
        assert cli.main(["--project", str(root), "--rules", str(rules)]) == code
        assert capsys.readouterr() == shipped


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    root = write_project(tmp_path, CLEAN)

    def explode(config):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr("mecheck.runner.run_checker", explode)
    assert cli.main(["--project", str(root)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_ignore_glob_skips_directories(tmp_path, capsys):
    files = dict(CLEAN)
    files["extra/bad.xml"] = "<beans><bean class='ghost.Klass'/></beans>"
    root = write_project(tmp_path, files)
    assert cli.main(["--project", str(root), "--ignore", "extra"]) == 0
    capsys.readouterr()


def test_qualified_param_annotations_keep_constructor_types(tmp_path, capsys):
    root = tmp_path / "r3"
    shutil.copytree(FIXTURES / "r3" / "clean", root)
    java = root / "src/main/java/com/fix/r3/Notifier.java"
    text = java.read_text()
    signature = "public Notifier(String message, int retries)"
    assert signature in text
    java.write_text(text.replace(
        signature,
        "public Notifier(@javax.annotation.Nonnull String message, "
        "@org.example.Range(min = 1) final int retries)",
    ))
    assert cli.main(["--project", str(root)]) == 0
    assert capsys.readouterr().out.endswith("0 findings across 15 rules\n")


def test_generic_constructor_param_counts_once_for_r5(tmp_path, capsys):
    root = tmp_path / "r3"
    shutil.copytree(FIXTURES / "r3" / "clean", root)
    (root / "src/main/java/com/fix/r3/Notifier.java").write_text(
        "package com.fix.r3;\n\npublic class Notifier {\n"
        "    public Notifier(java.util.Map<String, Integer> opts) { }\n}\n"
    )
    beans = root / "src/main/resources/beans.xml"
    text = beans.read_text()
    start, end = text.index("    <constructor-arg"), text.index("  </bean>")
    beans.write_text(text[:start] + '    <constructor-arg index="1" value="x"/>\n' + text[end:])
    assert cli.main(["--project", str(root), "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [(r["rule"].split("-", 1)[0], r["line"]) for r in reports] == [("r5", 4)]


def test_deeply_nested_xml_is_checked(tmp_path, capsys):
    depth = 3000
    root = write_project(tmp_path, {
        **CLEAN,
        "src/main/resources/deep.xml": (
            '<beans><bean id="outer" class="com.x.App">'
            + "<bean>" * depth + "</bean>" * depth
            + "</bean></beans>"
        ),
    })
    assert cli.main(["--project", str(root), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"] == []
    assert payload["summary"]["rulesExecuted"] == 15


def r5_project(tmp_path, index, java=None):
    """fixtures/r5/clean with one constructor-arg index changed, and
    optionally another Endpoint source."""
    root = tmp_path / "r5"
    shutil.copytree(FIXTURES / "r5" / "clean", root)
    beans = root / "src/main/resources/beans.xml"
    beans.write_text(beans.read_text().replace('index="1"', f'index="{index}"'))
    if java is not None:
        (root / "src/main/java/com/fix/r5/Endpoint.java").write_text(java)
    return root


@pytest.mark.parametrize("index", ["abc", "1_0", "-1", " 1", "2"])
def test_r5_reports_an_index_spring_rejects(tmp_path, capsys, index):
    root = r5_project(tmp_path, index)
    assert cli.main(["--project", str(root), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    reports = json.loads(out)["reports"]
    assert [(r["rule"].split("-", 1)[0], r["line"]) for r in reports] == [("r5", 5)]
    assert f"Index {index} of" in reports[0]["message"]


RECORD_ENDPOINT = (
    "package com.fix.r5;\n\npublic record Endpoint(String host, int port) {\n"
    "    public Endpoint {\n        java.util.Objects.requireNonNull(host);\n    }\n}\n"
)


@pytest.mark.parametrize("index, code", [("1", 0), ("2", 1)])
def test_r5_reads_a_record_canonical_constructor(tmp_path, capsys, index, code):
    root = r5_project(tmp_path, index, RECORD_ENDPOINT)
    assert cli.main(["--project", str(root), "--format", "json"]) == code
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["rule"].split("-", 1)[0] for r in reports] == ["r5"] * code


# The two ways a user starts a check in its own process: the `mecheck`
# console script (which calls run()) and `python -m mecheck.cli`.
ENTRIES = {
    "console-script": ["-c", "from mecheck.cli import run; run()"],
    "module": ["-m", "mecheck.cli"],
}


def run_entry(entry, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *ENTRIES[entry], *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def without_elapsed(stdout):
    payload = json.loads(stdout)
    del payload["summary"]["elapsedMs"]
    return payload


def many_findings_project(tmp_path):
    """A project whose JSON report is larger than a pipe's buffer."""
    beans = "".join(f'  <bean id="b{i}" class="com.missing.Gone{i}"/>\n' for i in range(600))
    return write_project(tmp_path, {"beans.xml": f"<beans>\n{beans}</beans>\n"}, sub="many")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case, args, code", [
    ("clean", ["--project", FIXTURES / "combined-clean"], 0),
    ("findings", ["--project", FIXTURES / "r2" / "buggy-1"], 1),
    ("findings-json", ["--project", FIXTURES / "r15" / "buggy-1", "--format", "json"], 1),
    ("no-fail-json", ["--project", FIXTURES / "r6" / "buggy-1", "--format", "json", "--no-fail"], 0),
    ("missing-project", ["--project", FIXTURES / "no-such-project"], 2),
    ("bad-flag", ["--project", FIXTURES / "combined-clean", "--format", "xml"], 2),
])
def test_console_entries_exit_and_print_as_main_does(entry, case, args, code, capsys):
    proc = run_entry(entry, args)
    assert proc.returncode == code, proc.stderr
    assert cli.main([str(a) for a in args]) == code
    assert gc.isenabled()  # only run() pauses the collector
    captured = capsys.readouterr()
    assert proc.stderr == captured.err
    if "--format" in args and code != 2:
        assert without_elapsed(proc.stdout) == without_elapsed(captured.out)
    else:
        assert proc.stdout == captured.out


@pytest.mark.parametrize("entry", ENTRIES)
def test_console_entries_write_complete_json_to_a_pipe(entry, tmp_path, capsys):
    root = many_findings_project(tmp_path)
    args = ["--project", root, "--format", "json"]
    proc = run_entry(entry, args)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stdout) > 1 << 16
    payload = without_elapsed(proc.stdout)
    assert payload["summary"]["reports"] == len(payload["reports"]) == 600
    assert cli.main([str(a) for a in args]) == 1
    assert payload == without_elapsed(capsys.readouterr().out)
    assert gc.isenabled()
