"""One full check: load rules, build the model, run every rule.

Each rule runs as generated Python (runtime/interpreter.py), written
from the rule once, as the pack loads, and compiled once per check, in a
walk: rules that open with the same statements share one walk, which
evaluates a statement, equal in each rule but for its spans, once per
binding; a rule that shares nothing has a walk of its own.  A
declaration is shared, and so is a for or if that ends its body.  Each
rule is still run by one run_rule call of its own interpreter, in pack
order: a walk runs inside its first rule's call and appends every
report of its rules to the check's one sink as it is made, so the sink
holds a rule's reports in the order the rule made them, and a walk's
rules interleave.  Renderers sort by (rule name, file, line), a stable
sort, so reports of one place keep their rule's order.  A rule error in
a rule's own statements stops that rule only; one in a shared statement
stops every rule under it.  Each stopped rule's own run_rule call raises
its error, with its own name and position, and the check records it as
a diagnostic instead of aborting the run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from mecheck import builtins as builtins_mod
from mecheck import rulepack
from mecheck.model.project import DEFAULT_IGNORE_GLOBS, ProjectModel, build_model
from mecheck.record import Record
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import BugReport, Interpreter, RuntimeRuleError, compile_pack

TEXT = "text"
JSON = "json"


class CheckerConfig(Record):
    __slots__ = (
        "project_root", "rules_dir", "lib_patterns_file", "resource_roots",
        "ignore_globs",
    )
    project_root: str
    rules_dir: str | None
    lib_patterns_file: str | None
    resource_roots: tuple[str, ...]
    ignore_globs: tuple[str, ...]

    def __init__(self, project_root: str, rules_dir: str | None = None,
                 lib_patterns_file: str | None = None,
                 resource_roots: tuple[str, ...] = builtins_mod.DEFAULT_RESOURCE_ROOTS,
                 ignore_globs: tuple[str, ...] = DEFAULT_IGNORE_GLOBS):
        super().__init__(project_root, rules_dir, lib_patterns_file, resource_roots, ignore_globs)


class RunSummary:
    """What one check found and did; run_checker fills it in."""

    __slots__ = (
        "reports", "rules_executed", "diagnostics", "warnings", "cache_stats", "elapsed_ms",
    )

    def __init__(self):
        self.reports: list[BugReport] = []
        self.rules_executed = 0
        self.diagnostics: list[str] = []
        self.warnings: list[str] = []
        self.cache_stats: dict[str, int] = {}
        self.elapsed_ms = 0.0


def run_checker(config: CheckerConfig, model: ProjectModel | None = None) -> RunSummary:
    """Run the whole pack against the project and collect everything."""
    started = time.perf_counter()
    rules_dir = config.rules_dir or rulepack.default_rules_dir()
    pack = rulepack.load_rulepack(rules_dir)

    if model is None:
        model = build_model(Path(config.project_root), tuple(config.ignore_globs))

    if config.lib_patterns_file:
        patterns = builtins_mod.LibraryPatternSet.from_file(config.lib_patterns_file)
    else:
        patterns = builtins_mod.LibraryPatternSet.default()
    registry = builtins_mod.Registry(
        lib_patterns=patterns, resource_roots=tuple(config.resource_roots)
    )

    summary = RunSummary()
    cache = QueryCache()
    sink: list[BugReport] = []
    interpreters: list[Interpreter | None] = [
        Interpreter(model, registry, cache) for _ in pack.rules]
    compile_pack(interpreters, pack)
    for k, rule in enumerate(pack.rules):
        # a rule's compiled code is freed once its turn is over
        interp, interpreters[k] = interpreters[k], None
        try:
            interp.run_rule(rule, sink)
        except RuntimeRuleError as exc:
            summary.diagnostics.append(str(exc))
        summary.rules_executed += 1

    summary.reports = sink
    summary.warnings = [f"{w.path}: {w.message}" for w in model.warnings]
    summary.cache_stats = cache.stats()
    summary.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return summary


def sorted_reports(reports: list[BugReport]) -> list[BugReport]:
    return sorted(reports, key=lambda r: (r.rule_name, r.file_path, r.line))


def render_text(summary: RunSummary) -> str:
    lines = [
        f"RULE {r.rule_name} {r.file_path}:{r.line}: {r.message}"
        for r in sorted_reports(summary.reports)
    ]
    lines.append(
        f"{len(summary.reports)} findings across {summary.rules_executed} rules"
    )
    return "\n".join(lines) + "\n"


def render_json(summary: RunSummary) -> str:
    payload = {
        "reports": [
            {
                "rule": r.rule_name,
                "file": r.file_path,
                "line": r.line,
                "message": r.message,
            }
            for r in sorted_reports(summary.reports)
        ],
        "summary": {
            "reports": len(summary.reports),
            "rulesExecuted": summary.rules_executed,
            "elapsedMs": int(summary.elapsed_ms),
        },
        "warnings": summary.warnings,
        "diagnostics": summary.diagnostics,
    }
    return json.dumps(payload, indent=2) + "\n"


def render_reports(summary: RunSummary, output_format: str) -> str:
    if output_format == JSON:
        return render_json(summary)
    return render_text(summary)
