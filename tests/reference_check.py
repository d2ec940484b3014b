"""What run_checker gives, as the frozen reference interpreter gives it.

tests/reference_interpreter.py runs with no query cache: it calls
Registry.call for every built-in and scans every exists.  The rule
engine always runs with a cache, answers an indexable exists from its
index and calls most built-ins' bodies straight from the rule code, so
comparing its RunSummary with reference_check's checks those against an
independent implementation rather than against themselves.
make_interpreter gives tests that drive one interpreter either engine.

The reference's sink holds the rules' reports one rule after another,
while the engine's walks interleave the reports of the rules they run;
by_rule puts either in the order each rule made its reports.
"""

from __future__ import annotations

from pathlib import Path

import reference_interpreter as ref
from mecheck import builtins as builtins_mod
from mecheck import rulepack
from mecheck.model.project import ProjectModel, build_model
from mecheck.rsl import ast
from mecheck.runner import CheckerConfig, RunSummary
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import BugReport, Interpreter, RuntimeRuleError

# What either engine raises when a rule fails.
RULE_ERRORS = (RuntimeRuleError, ref.RuntimeRuleError)


def make_interpreter(model: ProjectModel, registry: builtins_mod.Registry,
                     cache: QueryCache | None):
    """An Interpreter over cache, or given None, the reference's with no
    cache, which scans every exists."""
    if cache is None:
        return ref.Interpreter(model, registry, None)
    return Interpreter(model, registry, cache)


def reference_run(rules: list[ast.Rule], model: ProjectModel,
                  registry: builtins_mod.Registry | None = None) -> RunSummary:
    """The rules run as run_checker runs them, in one shared walk per set of
    rules that share statements, by the reference with no cache: the
    reports in sink order, one rule after another, and each rule error's
    text, which holds its line and column, as a diagnostic."""
    registry = registry or builtins_mod.Registry()
    interpreters = [ref.Interpreter(model, registry, None) for _ in rules]
    ref.compile_pack(interpreters, rules)
    summary, sink = RunSummary(), []
    for interp, rule in zip(interpreters, rules):
        try:
            interp.run_rule(rule, sink)
        except ref.RuntimeRuleError as exc:
            summary.diagnostics.append(str(exc))
        summary.rules_executed += 1
    summary.reports = [BugReport(r.rule_name, r.message, r.file_path, r.line) for r in sink]
    summary.warnings = [f"{w.path}: {w.message}" for w in model.warnings]
    return summary


def by_rule(reports: list) -> list:
    """reports, each rule's in the order it made them: a stable sort by
    rule name."""
    return sorted(reports, key=lambda r: r.rule_name)


def reference_check(config: CheckerConfig, model: ProjectModel | None = None) -> RunSummary:
    """run_checker(config, model), run by the reference with no cache; its
    cache_stats stay empty and elapsed_ms 0."""
    rules = rulepack.load_rulepack(config.rules_dir or rulepack.default_rules_dir()).rules
    if model is None:
        model = build_model(Path(config.project_root), tuple(config.ignore_globs))
    if config.lib_patterns_file:
        patterns = builtins_mod.LibraryPatternSet.from_file(config.lib_patterns_file)
    else:
        patterns = builtins_mod.LibraryPatternSet.default()
    registry = builtins_mod.Registry(lib_patterns=patterns,
                                     resource_roots=tuple(config.resource_roots))
    return reference_run(rules, model, registry)
