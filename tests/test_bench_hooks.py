"""The functions bench/tracing.py wraps still exist and are still called.

The benchmark's traced mode patches mecheck's layer functions from
outside src/; a rename or a call that bypasses one of them would leave
its per-layer metrics at zero without failing anything.  This runs one
traced check of a fixture and asserts the spans the metrics are read from.
"""

import importlib.util
from pathlib import Path

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
    code = cli.main(["--project", str(ROOT / "fixtures" / "combined-clean"),
                     "--format", "json", "--no-fail"])
    capsys.readouterr()
    tracing.finish_counters(tracer, seen)
    assert code == 0
    names = set(tracer.names)
    expected = {"tokenize_java", "scan_declarations", "extract_members", "parse_xml",
                "builtin:getAttr"} | {f"rule:r{i}" for i in range(1, 16)}
    assert expected <= names
    assert tracer.counters["project.java_files"] > 0
    assert tracer.counters["javasrc.tokens"] > 0
    # a cached built-in is still dispatched through Registry.call ...
    assert "builtin:getElms" in names
    # ... and so is every evaluated call the query cache does not answer
    registry_calls = sum(
        calls for name, calls in zip(tracer.names, tracer.calls) if name.startswith("builtin:")
    )
    counters = tracer.counters
    assert counters["cache.hits"] > 0
    assert registry_calls == counters["interpreter.builtin_calls"] - counters["cache.hits"]
