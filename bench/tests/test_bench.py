"""Tests of the benchmark's own parts: generator, verdict check, tracing.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verdict  # noqa: E402


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    files_a, manifest_a = gen.generate(workload, 11)
    files_b, manifest_b = gen.generate(workload, 11)
    assert files_a == files_b
    assert manifest_a == manifest_b
    gen.write_tree(files_a, tmp_path / "a")
    gen.write_tree(files_b, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    files_c, _ = gen.generate(workload, 12)
    assert files_c != files_a


def test_every_rule_is_injected_somewhere():
    injected = set()
    for workload in gen.WORKLOADS:
        _, manifest = gen.generate(workload, 1)
        for rule, entry in manifest["defects"].items():
            assert entry["count"] == len(entry["names"]) > 0
            injected.add(rule)
    assert injected == set(gen.RULES)


def test_defect_names_are_not_substrings_of_each_other():
    for workload in gen.WORKLOADS:
        _, manifest = gen.generate(workload, 3)
        for entry in manifest["defects"].values():
            names = entry["names"]
            assert not [(a, b) for a in names for b in names if a != b and a in b]


def reports_for(manifest: dict) -> list[dict]:
    """A report set that matches the manifest exactly."""
    return [
        {"rule": f"{rule}-some-rule", "file": "x.xml", "line": 3,
         "message": f"finding about {name} here"}
        for rule, entry in manifest["defects"].items()
        for name in entry["names"]
    ]


MANIFEST = {"defects": {"r1": {"count": 2, "names": ["ghost-0001", "ghost-0002"]},
                        "r15": {"count": 1, "names": ["ghostBean0001"]}}}


def test_verdict_accepts_matching_reports():
    assert verdict.mismatches(reports_for(MANIFEST), MANIFEST) == []


def test_verdict_rejects_a_removed_finding():
    reports = reports_for(MANIFEST)
    del reports[1]
    problems = verdict.mismatches(reports, MANIFEST)
    assert any("no finding names ghost-0002" in p for p in problems)


def test_verdict_rejects_an_extra_finding():
    reports = reports_for(MANIFEST)
    reports.append({"rule": "r15-bean-exists", "file": "", "line": 0,
                    "message": "getBean lookup by name other matches nothing"})
    problems = verdict.mismatches(reports, MANIFEST)
    assert any(p.startswith("r15: 2 findings") for p in problems)
    assert any("names no injected defect" in p for p in problems)


def test_verdict_rejects_a_duplicate_finding_and_an_unexpected_rule():
    reports = reports_for(MANIFEST)
    assert verdict.mismatches(reports + [reports[0]], MANIFEST)
    stray = {"rule": "r7-property-setter-map", "file": "a", "line": 1, "message": "m"}
    assert verdict.mismatches(reports + [stray], MANIFEST)


def test_verdict_ignores_locations_and_located_share_counts_them():
    reports = reports_for(MANIFEST)
    reports[0] = dict(reports[0], file="", line=0)
    assert verdict.mismatches(reports, MANIFEST) == []
    assert verdict.located_share(reports) == pytest.approx(2 / 3)


def test_self_time_arithmetic_on_a_hand_built_tree():
    # name, parent, start, end, calls, busy
    spans = [
        ["build_model", -1, 0, 100, 1, 100],       # 100 - 60 - 30 = 10
        ["tokenize_java", 0, 5, 65, 1, 60],        # 60 - 25 = 35
        ["member_load", 1, 10, 35, 1, 25],         # leaf
        ["builtin:getAttr", 0, 66, 99, 3, 30],     # folded: 3 calls, leaf
        ["rule:r15", -1, 120, 170, 1, 50],         # 50 - 20 = 30
        ["get_or_compute", 4, 121, 169, 4, 20],    # folded leaf
    ]
    assert tracing.self_times(spans) == [10, 35, 25, 30, 30, 20]
    m = tracing.layer_metrics(spans, {"cache.hits": 3, "cache.misses": 1}, 200e-9)
    assert m["project.walk_ms"] == pytest.approx(10e-6)
    assert m["javasrc.tokenize_ms"] == pytest.approx(35e-6)
    assert m["items.member_loads"] == 1
    assert m["builtins.getAttr.calls"] == 3
    assert m["builtins.ms"] == pytest.approx(30e-6)
    assert m["interpreter.rule.r15_ms"] == pytest.approx(30e-6)
    assert m["cache.lookup_ms"] == pytest.approx(20e-6)
    assert m["cache.hit_ratio"] == pytest.approx(0.75)
    # self times sum to the root spans (150 ns); the rest of the wall is unaccounted
    assert m["trace.unaccounted_ms"] == pytest.approx((200 - 150) * 1e-6)


def test_tracer_records_parents_and_folds_hot_calls():
    ticks = iter(range(0, 10_000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.folded_span(lambda x: x, lambda args: "leaf")
    outer = tracer.span(lambda n: [leaf(i) for i in range(n)], lambda args: "outer")
    outer(3)
    outer(2)
    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert names == ["outer", "leaf", "outer", "leaf"]
    assert [s[1] for s in spans] == [-1, 0, -1, 2]
    assert [s[4] for s in spans] == [1, 3, 1, 2]
    for s, own in zip(spans, tracing.self_times(spans)):
        assert own >= 0
        assert s[5] <= s[3] - s[2]


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_checks_are_scaled_by_the_calibration_around_them():
    slow_host = run.Check(wall_s=6.0, rss_mb=1.0, problems=[], host_s=2 * run.CALIB_REF_S)
    ref_host = run.Check(wall_s=3.0, rss_mb=1.0, problems=[], host_s=run.CALIB_REF_S)
    assert slow_host.scaled_s == pytest.approx(3.0)
    assert ref_host.scaled_s == pytest.approx(3.0)
    manifest = {"java_files": 2, "xml_files": 1}
    m = run.end_to_end([slow_host, ref_host], [0.2], manifest)
    assert m["check_s"] == pytest.approx(3.0)
    assert m["files_per_s"] == pytest.approx(1.0)
