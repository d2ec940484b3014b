"""The functions bench/tracing.py wraps still exist and are still called.

The benchmark's traced mode patches mecheck's layer functions from
outside src/; a rename or a call that bypasses one of them would leave
its per-layer metrics at zero without failing anything.  This runs one
traced check of a fixture and asserts the spans the metrics are read from.
A built-in call whose arguments pass its guard runs the body straight
from the rule code, so the trace's builtin spans hold only the calls
that reach Registry.call: cache misses and failed guards.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from body_counts import BodyCounter
from mecheck import builtins as builtins_mod
from mecheck import cli, rulepack, runner
from mecheck.builtins import Registry
from mecheck.model import items, javasrc, project
from mecheck.runtime import cache, interpreter

ROOT = Path(__file__).resolve().parent.parent

# Every attribute tracing.install() replaces.
PATCHED = [
    (rulepack, "load_rulepack"),
    (runner, "build_model"),
    (runner, "render_reports"),
    (project, "parse_xml"),
    (javasrc, "tokenize_java"),
    (javasrc, "scan_declarations"),
    (javasrc, "extract_members"),
    (interpreter.Interpreter, "run_rule"),
    (interpreter, "canonical_key"),
    (items.ClassItem, "members"),
    (Registry, "call"),
    (cache.QueryCache, "get_or_compute"),
    (cache.QueryCache, "__init__"),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_check_records_every_layer(monkeypatch, capsys):
    for obj, name in PATCHED:
        monkeypatch.setattr(obj, name, getattr(obj, name))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    seen = tracing.install(tracer)
    counter = BodyCounter(Registry.call)  # around the traced Registry.call
    monkeypatch.setattr(Registry, "call", counter.call)
    monkeypatch.setattr(builtins_mod, "BUILTINS", counter.table)
    code = cli.main(["--project", str(ROOT / "fixtures" / "combined-clean"),
                     "--format", "json", "--no-fail"])
    capsys.readouterr()
    tracing.finish_counters(tracer, seen)
    assert code == 0
    names = set(tracer.names)
    expected = {"tokenize_java", "scan_declarations", "extract_members", "parse_xml"} | {
        f"rule:r{i}" for i in range(1, 16)}
    assert expected <= names
    calls = Counter()  # a name has a span under each parent
    for name, n in zip(tracer.names, tracer.calls):
        calls[name] += n
    # getAttr, uncached, runs its body straight from the rule code on every call here
    assert calls["builtin:getAttr"] == counter.registry["getAttr"] == 0
    assert counter.direct["getAttr"] > 0
    assert tracer.counters["project.java_files"] > 0
    assert tracer.counters["javasrc.tokens"] > 0
    # a cached built-in is still dispatched through Registry.call ...
    assert "builtin:getElms" in names
    # ... and so is every evaluated call that neither the query cache answers
    # nor the rule code runs directly
    registry_calls = sum(n for name, n in calls.items() if name.startswith("builtin:"))
    counters = tracer.counters
    assert counters["cache.hits"] > 0
    assert registry_calls == sum(counter.registry.values())
    assert registry_calls + sum(counter.direct.values()) == (
        counters["interpreter.builtin_calls"] - counters["cache.hits"])
