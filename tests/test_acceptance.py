import json
import shutil
import time
from pathlib import Path

from mecheck.model.project import build_model
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.rulepack import default_rules_dir, load_rulepack
from mecheck.runner import CheckerConfig, run_checker
from mecheck.runtime.interpreter import Interpreter

from test_properties import BEAN_IDS, CTX_XML, run_invalid_cases, run_valid_cases

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_cases():
    for rule_dir in sorted(FIXTURES.iterdir(), key=lambda p: p.name):
        if (rule_dir / "expected.json").is_file():
            yield rule_dir
        else:
            for case in sorted(rule_dir.iterdir(), key=lambda p: p.name):
                if (case / "expected.json").is_file():
                    yield case


# Valid configurations of documented Spring and JUnit usage, each with a
# copy holding one injected defect; fixture_cases() does not descend here,
# so C1 and C2 keep the paper's corpus.
SHAPES = FIXTURES / "shapes"


def manifest_of(case):
    return json.loads((case / "expected.json").read_text())


def buggy_cases():
    return [c for c in fixture_cases() if c.name.startswith("buggy")]


def clean_cases():
    return [c for c in fixture_cases() if not c.name.startswith("buggy")]


def rule_prefix(report):
    return report.rule_name.split("-")[0]


def write_tree(root, files):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def test_c1_injected_bug_corpus():
    started = time.perf_counter()
    injected = true_positives = false_positives = 0
    for case in buggy_cases():
        manifest = manifest_of(case)
        summary = run_checker(CheckerConfig(project_root=str(case)))
        assert summary.diagnostics == [], case
        matching = [r for r in summary.reports if rule_prefix(r) == manifest["ruleId"]]
        others = [r for r in summary.reports if rule_prefix(r) != manifest["ruleId"]]
        assert len(matching) == manifest["count"], case
        assert others == [], case
        for needle in manifest["messageContains"]:
            assert any(needle in r.message for r in matching), (case, needle)
        injected += 1
        true_positives += len(matching)
        false_positives += len(others)
    elapsed = time.perf_counter() - started

    assert injected == 45
    assert true_positives == 43
    assert false_positives == 0
    precision = true_positives / (true_positives + false_positives)
    recall = true_positives / injected
    f_measure = 2 * precision * recall / (precision + recall)
    assert precision == 1.0
    assert abs(recall * 100 - 95.6) < 0.05
    assert abs(f_measure * 100 - 97.7) < 0.05
    assert elapsed < 10.0
    print(
        f"[acceptance] C1 injected-bug corpus: PASS "
        f"({true_positives}/{injected} found, precision {precision:.3f}, "
        f"recall {recall:.3f}, F {f_measure:.3f}, {elapsed:.1f}s)"
    )


def test_c2_clean_corpus_zero_findings():
    checked = 0
    for case in clean_cases():
        summary = run_checker(CheckerConfig(project_root=str(case)))
        assert summary.reports == [], case
        assert summary.diagnostics == [], case
        assert summary.rules_executed == 15
        checked += 1
    assert checked == 16  # one per rule plus the combined project
    print(f"[acceptance] C2 clean corpus zero findings: PASS ({checked} projects)")


def test_c3_all_15_rules_load_and_validate():
    rules = load_rulepack(default_rules_dir())
    assert len(rules) == 15
    assert all(isinstance(r, ast.Rule) for r in rules)
    prefixes = [r.name.split("-")[0] for r in rules]
    assert prefixes == [f"r{i}" for i in range(1, 16)]
    print("[acceptance] C3 rule pack expressiveness: PASS (15 validated rules)")


def test_c4_cache_effectiveness():
    fixtures_checked = 0
    total_hits = 0
    for case in fixture_cases():
        model = build_model(case)
        summary_on = run_checker(
            CheckerConfig(project_root=str(case), use_cache=True), model=model
        )
        summary_off = run_checker(
            CheckerConfig(project_root=str(case), use_cache=False), model=model
        )
        assert summary_on.reports == summary_off.reports, case
        assert summary_on.cache_stats != {}
        assert summary_off.cache_stats == {}
        total_hits += summary_on.cache_stats["hits"]
        fixtures_checked += 1
    assert total_hits > 0
    print(
        f"[acceptance] C4 cache effectiveness: PASS "
        f"({fixtures_checked} fixtures, {total_hits} cache hits, identical reports)"
    )


def test_c5_scoping_property_suite(tmp_path):
    root = tmp_path / "prop"
    root.mkdir()
    (root / "ctx.xml").write_text(CTX_XML)
    model = build_model(root)
    cases = run_valid_cases(model, seed=101, count=700, with_beanid=False)
    cases += run_valid_cases(model, seed=202, count=300, with_beanid=True)
    cases += run_invalid_cases(model, seed=303, per_variant=60)
    assert cases >= 1000
    print(f"[acceptance] C5 scoping property suite: PASS ({cases} generated cases)")


def test_c6_exists_short_circuit(tmp_path):
    methods = "\n".join(f"    public void m{i}() {{ }}" for i in range(1000))
    write_tree(tmp_path, {"src/perf/Wide.java": f"package perf;\n\npublic class Wide {{\n{methods}\n}}\n"})
    model = build_model(tmp_path)
    for k in (0, 499, 999):
        source = (
            "Rule probe-exists {\n"
            '  class c = locateClassFQN("perf.Wide");\n'
            f'  if (exists (method m in getMethods(c)) (getName(m) == "m{k}")) {{\n'
            '    String t = "found";\n'
            "  }\n"
            "}\n"
        )
        interp = Interpreter(model)
        interp.run_rule(parse_rule(source))
        assert interp.stats.exists_predicate_evals == k + 1, k
    print("[acceptance] C6 exists short-circuit: PASS (k+1 evals for k in {0, 499, 999})")


def test_c7_performance_envelope(tmp_path):
    files = {}
    for i in range(100):
        pkg = f"perf.p{i // 10}"
        files[f"src/main/java/{pkg.replace('.', '/')}/C{i}.java"] = (
            f"package {pkg};\n"
            "\n"
            f"public class C{i} {{\n"
            "    private String label;\n"
            "    private int weight;\n"
            "\n"
            f"    public C{i}(String label) {{\n"
            "        this.label = label;\n"
            "    }\n"
            "\n"
            "    public void setLabel(String label) {\n"
            "        this.label = label;\n"
            "    }\n"
            "\n"
            "    public String getLabel() {\n"
            "        return label;\n"
            "    }\n"
            "\n"
            "    @Deprecated\n"
            "    public int weightOf(String key) {\n"
            "        return weight;\n"
            "    }\n"
            "}\n"
        )
    for j in range(20):
        beans = "\n".join(
            f'  <bean id="bean{j}x{k}" class="perf.p{(j + k) % 10}.C{((j + k) % 10) * 10 + k}"/>'
            for k in range(5)
        )
        files[f"src/main/resources/ctx{j}.xml"] = f"<beans>\n{beans}\n</beans>\n"
    write_tree(tmp_path, files)

    started = time.perf_counter()
    summary = run_checker(CheckerConfig(project_root=str(tmp_path)))
    elapsed = time.perf_counter() - started
    assert summary.rules_executed == 15
    assert summary.diagnostics == []
    assert elapsed < 6.0
    print(
        f"[acceptance] C7 performance envelope: PASS "
        f"(100 Java + 20 XML in {elapsed:.2f}s, {len(summary.reports)} reports)"
    )


def test_c8_motivating_example_end_to_end(tmp_path):
    case = FIXTURES / "r6" / "buggy-1"
    summary = run_checker(CheckerConfig(project_root=str(case)))
    assert len(summary.reports) == 1
    report = summary.reports[0]
    assert report.rule_name == "r6-method-exists"
    assert "myPostConstruct" in report.message
    assert report.file_path == "Beans.xml"

    fixed = tmp_path / "fixed"
    shutil.copytree(case, fixed)
    java = fixed / "C.java"
    text = java.read_text()
    assert text.rstrip().endswith("}")
    java.write_text(text.rstrip()[:-1] + "\n    public void myPostConstruct() { }\n}\n")
    summary = run_checker(CheckerConfig(project_root=str(fixed)))
    assert summary.reports == []
    print("[acceptance] C8 motivating example end to end: PASS (1 report, then 0 after the fix)")


def test_c9_every_finding_is_located():
    """Every finding of the shipped pack names a file and a line > 0."""
    findings = 0
    for manifest in sorted(FIXTURES.glob("**/expected.json")):
        summary = run_checker(CheckerConfig(project_root=str(manifest.parent)))
        for report in summary.reports:
            assert report.file_path and report.line > 0, (manifest.parent, report)
        findings += len(summary.reports)
    assert findings >= 43
    print(f"[acceptance] C9 located findings: PASS ({findings} findings, all with file:line)")


def test_c10_shape_corpus_precision_and_recall():
    """On the shape corpus each clean project gives no finding and each
    buggy one exactly its injected finding, with the cache on and off."""
    tallies: dict[str, list[int]] = {}  # rule -> [true positives, false positives, injected]
    cases = sorted(m.parent for m in SHAPES.glob("*/*/expected.json"))
    assert cases
    for case in cases:
        manifest = manifest_of(case)
        model = build_model(case)
        summary = run_checker(CheckerConfig(project_root=str(case)), model=model)
        off = run_checker(CheckerConfig(project_root=str(case), use_cache=False), model=model)
        assert summary.reports == off.reports and summary.diagnostics == [], case
        rule = manifest["ruleId"]
        tallies.setdefault(rule, [0, 0, 0])[2] += manifest["count"]
        for report in summary.reports:
            injected = rule_prefix(report) == rule and manifest["count"] > 0
            tallies.setdefault(rule_prefix(report), [0, 0, 0])[0 if injected else 1] += 1
        matching = [r for r in summary.reports if rule_prefix(r) == rule]
        assert len(matching) == manifest["count"], case
        for needle in manifest["messageContains"]:
            assert any(needle in r.message for r in matching), (case, needle)
    for rule, (true_positives, false_positives, injected) in sorted(tallies.items()):
        precision = true_positives / max(true_positives + false_positives, 1)
        recall = true_positives / max(injected, 1)
        assert (precision, recall) == (1.0, 1.0), rule
        print(f"[acceptance] C10 {rule}: precision {precision:.3f}, recall {recall:.3f}")
