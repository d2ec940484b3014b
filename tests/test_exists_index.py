"""The hash index behind `exists (T x in C) (f(x) == e)`.

With a QueryCache the interpreter answers such predicates from an index
of f over C; without one it scans.  These tests check that the two paths
agree on truth values, predicate-eval counts and rule errors, that the
planner picks only the shapes it can answer exactly, and that r15's cost
grows with lookups + beans rather than lookups x beans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecheck import builtins as builtins_mod
from mecheck import rulepack
from mecheck.model.project import build_model
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.runner import CheckerConfig, run_checker
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import Interpreter, RuntimeRuleError, plan_exists
from mecheck.runtime.values import MISSING

PROJECT = {
    "ctx.xml": '<beans>\n  <bean id="a"/>\n  <bean id="b"/>\n</beans>\n',
    "src/p/K.java": "package p;\n\npublic class K {\n    public void run() { }\n}\n",
}


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("index-proj")
    for rel, content in PROJECT.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return build_model(root)


def first_exists(source: str):
    rule = parse_rule(source)
    stack = list(rule.body)
    while stack:
        node = stack.pop()
        for name in ("cond", "init", "container", "predicate"):
            child = getattr(node, name, None)
            if isinstance(child, ast.Exists):
                return child
        stack.extend(getattr(node, "body", ()))
    raise AssertionError("no exists in rule")


def probe_rule(predicate: str) -> str:
    return (
        "Rule probe {\n"
        f"  if (exists (String x in items()) ({predicate})) {{\n"
        '    assert (isEmpty("x")) { msg("hit"); }\n'
        "  }\n"
        "}\n"
    )


# -- planner -------------------------------------------------------------------


@pytest.mark.parametrize(
    "predicate, probe_first",
    [
        ("key(x) == probe()", False),
        ("probe() == key(x)", True),
        ("((key(x) == probe()))", False),
        ('key(key(x), "lit") == probe()', False),
        ("key(x) == (probe())", False),
    ],
)
def test_planner_accepts_equality_on_x(predicate, probe_first):
    plan = plan_exists(first_exists(probe_rule(predicate)))
    assert plan is not None
    assert plan.probe_first is probe_first


@pytest.mark.parametrize(
    "predicate",
    [
        "key(x)",  # not an equality
        "key(x) == key(x)",  # both sides mention x
        "probe() == probe()",  # neither side does
        "key(x, y) == probe()",  # keyed side reads another variable
        "key(x) == (exists (String z in items()) (key(z) == probe()))",  # nested exists in e
        'key(x) == probe() AND isEmpty("")',
        'NOT (key(x) == probe())',
    ],
)
def test_planner_rejects_other_shapes(predicate):
    assert plan_exists(first_exists(probe_rule(predicate))) is None


# -- differential: index (cache on) against scan (cache off) ------------------

RAISE = object()


class ProbeRegistry(builtins_mod.Registry):
    """The built-in pack plus items(), key(i) and probe() over a test case.

    items() returns positions 0..n-1 as one list object (so the index is
    reused across lookups), key(i) returns the case's i-th value or
    fails where the value is RAISE, and probe() returns the current
    lookup's value or fails on RAISE.
    """

    def __init__(self):
        super().__init__()
        self.positions: list = []
        self.values: list = []
        self.current = None
        for name, arity, fn in (
            ("items", 0, lambda model, args: self.positions),
            ("key", 1, self._key),
            ("probe", 0, self._probe),
        ):
            self._table[name] = fn
            self._signatures[name] = (arity, arity)

    def _key(self, model, args):
        value = self.values[args[0]]
        if value is RAISE:
            raise builtins_mod.PreconditionError("key", f"no key at position {args[0]}")
        return value

    def _probe(self, model, args):
        if self.current is RAISE:
            raise builtins_mod.PreconditionError("probe", "no probe value")
        return self.current


SCALARS = ["a", "b", "c", "", True, False, MISSING, 1, 1.0, 0, ["a"], []]


def value_pool(model):
    items = [model.xml_files[0], model.xml_files[0].root, *model.xml_files[0].root.children]
    items += list(model.classes)
    return SCALARS + items


@st.composite
def cases(draw, pool):
    plain = st.sampled_from(pool)
    values = draw(st.lists(plain, max_size=12))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = RAISE
    probes = draw(st.lists(st.one_of(plain, st.just(RAISE)), min_size=1, max_size=6))
    return values, probes


def run_lookups(model, rule, values, probes, cache):
    registry = ProbeRegistry()
    registry.positions = list(range(len(values)))
    registry.values = values
    interp = Interpreter(model, registry, cache)
    outcomes = []
    for probe in probes:
        registry.current = probe
        before = interp.stats.exists_predicate_evals
        try:
            found = bool(interp.run_rule(rule))
            error = None
        except RuntimeRuleError as exc:
            found, error = None, str(exc)
        outcomes.append((found, interp.stats.exists_predicate_evals - before, error))
    return outcomes, interp.stats


RULES = {side: parse_rule(probe_rule(pred)) for side, pred in (
    ("left", "key(x) == probe()"),
    ("right", "probe() == key(x)"),
)}


@pytest.mark.parametrize("side", sorted(RULES))
def test_index_agrees_with_scan(model, side):
    rule = RULES[side]
    used_index = []

    @settings(max_examples=300, deadline=None)
    @given(cases(value_pool(model)))
    def check(case):
        values, probes = case
        scanned, _ = run_lookups(model, rule, values, probes, cache=None)
        indexed, stats = run_lookups(model, rule, values, probes, cache=QueryCache())
        assert indexed == scanned
        used_index.append(stats.exists_index_lookups)

    check()
    assert sum(used_index) > 0


def test_index_lookups_counted_only_with_cache(model):
    rule = RULES["left"]
    values = ["a", "b", "a", MISSING]
    _, scan_stats = run_lookups(model, rule, values, ["b", "z"], cache=None)
    _, index_stats = run_lookups(model, rule, values, ["b", "z"], cache=QueryCache())
    assert scan_stats.exists_index_lookups == 0
    assert index_stats.exists_index_lookups == 2
    assert index_stats.exists_predicate_evals == scan_stats.exists_predicate_evals == 2 + 4


def test_number_values_fall_back_to_scan(model):
    rule = RULES["left"]
    outcomes, stats = run_lookups(model, rule, ["a", 1, "b"], ["b", 1.0], cache=QueryCache())
    assert outcomes == [(True, 3, None), (True, 2, None)]
    assert stats.exists_index_lookups == 0


def test_error_before_match_is_reraised_after_match_is_not(model):
    rule = RULES["left"]
    values = ["a", RAISE, "b"]
    outcomes, stats = run_lookups(model, rule, values, ["b", "a", "b"], cache=QueryCache())
    error = "rule probe failed at line 2, column 37: 'key': no key at position 1"
    assert outcomes == [(None, 2, error), (True, 1, None), (None, 2, error)]
    assert stats.exists_index_lookups == 3


def test_empty_container_never_evaluates_probe(model):
    for rule in RULES.values():
        outcomes, _ = run_lookups(model, rule, [], [RAISE], cache=QueryCache())
        assert outcomes == [(False, 0, None)]


# -- complexity guard: r15 costs lookups + beans ---------------------------------


def getbean_project(root, lookups: int, beans: int):
    calls = "\n".join(
        f'        ctx.getBean("{"bean" if i % 2 == 0 else "ghost"}{i}");'
        for i in range(lookups)
    )
    files = {
        "src/main/java/com/g/Main.java": (
            "package com.g;\n\npublic class Main {\n"
            "    public void run(Object ctx) {\n" + calls + "\n    }\n}\n"
        ),
    }
    for part in range(2):
        defs = "\n".join(
            f'  <bean id="bean{i}" class="com.g.Main"/>'
            for i in range(part, beans, 2)
        )
        files[f"src/main/resources/beans{part}.xml"] = f"<beans>\n{defs}\n</beans>\n"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def test_r15_getattr_calls_grow_with_lookups_plus_beans(tmp_path):
    lookups, beans = 40, 200
    root = getbean_project(tmp_path, lookups, beans)
    model = build_model(root)
    (r15,) = [r for r in rulepack.load_rulepack(rulepack.default_rules_dir())
              if r.name.startswith("r15-")]
    registry = builtins_mod.Registry()

    def run(cache):
        interp = Interpreter(model, registry, cache)
        names = []
        call = interp._call_builtin

        def counting(exp, args):
            names.append(exp.name)
            return call(exp, args)

        interp._call_builtin = counting
        return interp.run_rule(r15), interp.stats, names.count("getAttr")

    indexed, indexed_stats, indexed_calls = run(QueryCache())
    scanned, scanned_stats, scanned_calls = run(None)
    assert indexed == scanned
    assert len(indexed) == lookups // 2
    assert indexed_stats.exists_predicate_evals == scanned_stats.exists_predicate_evals
    assert indexed_stats.exists_index_lookups > 0
    assert scanned_calls > lookups * beans // 4
    assert indexed_calls < lookups * beans // 10
    assert indexed_calls <= 2 * (lookups + beans)


def test_r15_reports_identical_with_cache_on_and_off(tmp_path):
    root = getbean_project(tmp_path, 30, 120)
    model = build_model(root)
    on = run_checker(CheckerConfig(project_root=str(root), use_cache=True), model=model)
    off = run_checker(CheckerConfig(project_root=str(root), use_cache=False), model=model)
    assert on.reports == off.reports
    assert on.diagnostics == off.diagnostics == []
    assert sum(r.rule_name.startswith("r15-") for r in on.reports) == 15
