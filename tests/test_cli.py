import json
from pathlib import Path

import pytest

from mecheck import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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
    assert set(payload) == {"reports", "summary"}
    assert payload["summary"]["reports"] == 1
    assert payload["summary"]["rulesExecuted"] == 15
    assert isinstance(payload["summary"]["elapsedMs"], int)
    (report,) = payload["reports"]
    assert set(report) == {"rule", "file", "line", "message"}
    assert report["rule"] == "r2-bean-class-exists"
    assert report["file"] == "src/main/resources/beans.xml"
    assert report["line"] > 0


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
