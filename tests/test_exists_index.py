"""The hash index behind `exists (T x in C) (f(x) == e)`.

The interpreter answers such predicates from an index of f over C, and
`exists (T a in A) (exists (U b in B(a)) (f(b) == e))` from one index of
f over every B(a), both kept in its QueryCache; the frozen reference
interpreter (tests/reference_interpreter.py), run with no cache, scans.
These tests check that the two agree on truth values, predicate-eval
counts and rule errors, that the planner picks only the shapes it can
answer exactly, and that r15's cost grows with lookups + beans rather
than lookups x beans.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_check import RULE_ERRORS, by_rule, make_interpreter, reference_check

from mecheck import builtins as builtins_mod
from mecheck import rulepack
from mecheck.model.project import build_model
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.runner import CheckerConfig, run_checker
from mecheck.runtime.cache import QueryCache
from mecheck.runtime import interpreter
from mecheck.runtime.interpreter import Interpreter, RuntimeRuleError, plan_exists, plan_nested
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
    "predicate, keyed_right",
    [
        ("key(x) == probe()", False),
        ("probe() == key(x)", True),
        ("((key(x) == probe()))", False),
        ('key(key(x), "lit") == probe()', False),
        ("key(x) == (probe())", False),
    ],
)
def test_planner_accepts_equality_on_x(predicate, keyed_right):
    plan = plan_exists(first_exists(probe_rule(predicate)))
    assert plan is not None
    assert plan.keyed_left is not keyed_right
    keyed = plan.eq.rhs if keyed_right else plan.eq.lhs
    assert isinstance(keyed, ast.FunctionCall) and keyed.name == "key"


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


# -- differential: index against the reference's scan ---------------------------

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
        self.builtins = {
            **self.builtins,
            "items": builtins_mod.Builtin("items", lambda reg, model, args: reg.positions,
                                          range(0, 1)),
            "key": builtins_mod.Builtin("key", ProbeRegistry._key, range(1, 2)),
            "probe": builtins_mod.Builtin("probe", ProbeRegistry._probe, range(0, 1)),
        }

    def _key(self, model, args):
        value = self.values[args[0]]
        if value is RAISE:
            raise builtins_mod.PreconditionError(f"no key at position {args[0]}")
        return value

    def _probe(self, model, args):
        if self.current is RAISE:
            raise builtins_mod.PreconditionError("no probe value")
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
    interp = make_interpreter(model, registry, cache)
    outcomes = []
    for probe in probes:
        registry.current = probe
        before = interp.stats.exists_predicate_evals
        try:
            found = bool(interp.run_rule(rule))
            error = None
        except RULE_ERRORS as exc:
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
    # f fails at position 1, so the pair keeps no index and every lookup scans
    assert stats.exists_index_lookups == 0


@pytest.mark.parametrize("side", sorted(RULES))
def test_failing_pair_is_built_once_then_scanned(model, side):
    """f fails at position p: the build evaluates f once at each of
    positions 0..p, stores that there is no index, and every later lookup
    scans without building again."""
    rule = RULES[side]
    registry = ProbeRegistry()
    registry.values = ["a", "b", RAISE, "c", "d"]
    registry.positions = list(range(len(registry.values)))
    evaluated = []
    key = registry.builtins["key"]

    def counting_key(reg, model, args):
        evaluated.append(args[0])
        return key.fn(reg, model, args)

    registry.builtins = {**registry.builtins,
                         "key": builtins_mod.Builtin("key", counting_key, range(1, 2))}
    cache = QueryCache()
    interp = Interpreter(model, registry, cache)
    registry.current = "zzz"  # a probe with a key that nothing matches
    with pytest.raises(RuntimeRuleError):
        interp.run_rule(rule)
    # the build (positions 0, 1, 2), then the scan up to the failure
    assert evaluated == [0, 1, 2, 0, 1, 2]
    ((_, container, index),) = cache.exists_indexes.values()
    assert index is None and container is registry.positions
    for probe in ("a", "b"):
        evaluated.clear()
        registry.current = probe
        assert interp.run_rule(rule)
        assert evaluated == list(range(registry.values.index(probe) + 1))
    assert len(cache.exists_indexes) == 1
    assert interp.stats.exists_index_lookups == 0


def test_an_interpreter_given_no_cache_answers_from_its_own_index(model):
    """An Interpreter built with no cache makes one of its own, so an
    indexable exists is looked up, not scanned."""
    interp = Interpreter(model)
    rule = parse_rule(
        "Rule own-cache {\n"
        "  for (file f in getXMLs()) {\n"
        '    assert (exists (<bean> b in getElms(f, "<bean>")) (getAttr(b, "id") == "b")) {\n'
        '      msg("no bean b in %s", f);\n'
        "    }\n"
        "  }\n"
        "}\n")
    assert interp.run_rule(rule) == []
    assert interp.stats.exists_index_lookups > 0
    assert len(interp.cache.exists_indexes) == 1


def test_empty_container_never_evaluates_probe(model):
    for rule in RULES.values():
        outcomes, _ = run_lookups(model, rule, [], [RAISE], cache=QueryCache())
        assert outcomes == [(False, 0, None)]


# -- nested exists: one index over every B(a) -----------------------------------


class NestedRegistry(ProbeRegistry):
    """ProbeRegistry plus groups() and each(g[, h]) over a nested case.

    groups() returns the group numbers 0..n-1 as one list object; each(g)
    returns group g's element positions (one list object per group), or
    MISSING, or fails, as the case says; each(g, h) is each(g), but empty
    where g == h.  probe(g) gives the lookup's value for group g when the
    lookup's value is a tuple, and the value itself otherwise.
    """

    def __init__(self, groups):
        super().__init__()
        self.values, self.groups = [], []
        for group in groups:
            if isinstance(group, list):
                self.groups.append(list(range(len(self.values), len(self.values) + len(group))))
                self.values.extend(group)
            else:
                self.groups.append(group)  # MISSING or RAISE
        self.group_numbers = list(range(len(groups)))
        self.builtins = {
            **self.builtins,
            "groups": builtins_mod.Builtin("groups", lambda reg, model, args: reg.group_numbers,
                                           range(0, 1)),
            "each": builtins_mod.Builtin("each", NestedRegistry._each, range(1, 3)),
            "probe": builtins_mod.Builtin("probe", NestedRegistry._probe_group, range(0, 2)),
        }

    def _each(self, model, args):
        group = self.groups[args[0]]
        if group is RAISE:
            raise builtins_mod.PreconditionError(f"no group {args[0]}")
        return [] if len(args) == 2 and args[0] == args[1] else group

    def _probe_group(self, model, args):
        if args and isinstance(self.current, tuple):
            return self.current[args[0]]
        return self._probe(model, args)


def nested_rule(each="each(g)", predicate="key(x) == probe()"):
    """Reports once per h in groups() for which the nested exists holds."""
    return (
        "Rule nested {\n"
        "  for (String h in groups()) {\n"
        f"    if (exists (String g in groups()) (exists (String x in {each}) ({predicate}))) {{\n"
        '      assert (isEmpty("x")) { msg("hit"); }\n'
        "    }\n"
        "  }\n"
        "}\n"
    )


FLAT_NESTED = nested_rule()


@pytest.mark.parametrize("each, predicate", [
    ("each(g)", "key(x) == probe()"),
    ("each(g)", "probe() == key(x)"),
    ('each(g, "lit")', "((key(x) == probe()))"),
])
def test_planner_flattens_nested_exists(each, predicate):
    outer = first_exists(nested_rule(each, predicate))
    inner = plan_nested(outer)
    assert inner is not None and inner.var == "x"
    assert plan_exists(outer) is None


@pytest.mark.parametrize("each, predicate", [
    ("each(g)", "key(x) == probe(g)"),  # e mentions a
    ("each(g, h)", "key(x) == probe()"),  # B(a) reads a variable bound outside
    ("each(g)", "key(x) == key(x)"),  # the inner exists is not indexable
    ("each(g)", "key(x, h) == probe()"),  # f reads a variable bound outside
])
def test_planner_keeps_other_nested_shapes_scanning(each, predicate):
    assert plan_nested(first_exists(nested_rule(each, predicate))) is None


def run_nested(model, source, groups, probes, cache, monkeypatch=None):
    """(reports, predicate evals, rule error) per probe, the stats, and
    how often each (exists node, container) pair's index was built."""
    registry = NestedRegistry(groups)
    builds = Counter()
    if monkeypatch is not None:
        for name in ("_build_index", "_build_nested_index"):
            build = getattr(interpreter, name)

            def counting(container, *args, build=build):
                builds[id(container)] += 1
                return build(container, *args)

            monkeypatch.setattr(interpreter, name, counting)
    interp = make_interpreter(model, registry, cache)
    rule = parse_rule(source)
    outcomes = []
    for probe in probes:
        registry.current = probe
        before = interp.stats.exists_predicate_evals
        try:
            found, error = len(interp.run_rule(rule)), None
        except RULE_ERRORS as exc:
            found, error = None, str(exc)
        outcomes.append((found, interp.stats.exists_predicate_evals - before, error))
    return outcomes, interp.stats, builds


NESTED_SHAPES = {
    # name: (groups, probes, rule, whether one index answers the outer exists)
    "match in a later file": ([["a", "b"], ["c", "d"], ["d"]], ["d", "a"], FLAT_NESTED, True),
    "miss": ([["a", "b"], ["c"]], ["z"], FLAT_NESTED, True),
    "empty A": ([], ["a"], FLAT_NESTED, False),
    "empty B(a)": ([[], ["a"], [], ["b"]], ["b", "z"], FLAT_NESTED, True),
    "every B(a) empty": ([[], []], [RAISE], FLAT_NESTED, False),
    "MISSING B(a)": ([["a"], MISSING, ["b"]], ["b", "a"], FLAT_NESTED, False),
    "B(a) errors before the match": ([["a"], RAISE, ["b"]], ["b", "a"], FLAT_NESTED, False),
    "B(a) errors after the match": ([["a"], ["b"], RAISE], ["b", "a"], FLAT_NESTED, False),
    "f gives a number": ([["a"], ["b", 1]], ["b", 1], FLAT_NESTED, False),
    "f fails": ([["a"], ["b", RAISE]], ["a", "b"], FLAT_NESTED, False),
    "e errors": ([[], ["a"]], [RAISE, "a"], FLAT_NESTED, True),
    "e without a key": ([["a"], ["b"]], [1, ["b"], "b"], FLAT_NESTED, True),
    "e mentions a": ([["a"], ["b"]], [("z", "b"), ("a", "z"), ("b", "a")],
                     nested_rule(predicate="key(x) == probe(g)"), False),
    "B(a) reads an outer variable": ([["a"], ["b"]], ["a", "b"],
                                     nested_rule(each="each(g, h)"), False),
}


@pytest.mark.parametrize("shape", NESTED_SHAPES)
def test_nested_index_agrees_with_scan(model, monkeypatch, shape):
    groups, probes, source, indexed = NESTED_SHAPES[shape]
    scanned, scan_stats, _ = run_nested(model, source, groups, probes, None)
    cache = QueryCache()
    found, stats, builds = run_nested(model, source, groups, probes, cache, monkeypatch)
    assert found == scanned
    assert stats.exists_predicate_evals == scan_stats.exists_predicate_evals
    assert set(builds.values()) <= {1}
    nested = [entry for entry in cache.exists_indexes.values() if entry[0].var == "g"]
    if indexed:
        ((_, container, index),) = nested
        assert index is not None and builds[id(container)] == 1
        assert stats.exists_index_lookups > 0
    else:
        assert all(index is None for _, _, index in nested)


def test_nested_index_counts_as_the_scan(model):
    """A match at (p, q) counts p + 1 + |B_0| + ... + |B_p-1| + q + 1, a
    miss |A| + every |B(a)|, and an error from e the groups up to the first
    non-empty one, plus one."""
    groups = [["a", "b"], [], ["c", "d", "c"]]
    probes = ["a", "b", "d", "c", "z", RAISE]
    outcomes, stats, _ = run_nested(model, FLAT_NESTED, groups, probes, QueryCache())
    error = "rule nested failed at line 3, column 80: 'probe': no probe value"
    evals = [1 + 1, 1 + 2, 3 + 2 + 2, 3 + 2 + 1, 3 + 5, 1 + 1]
    # the rule runs the exists once per h in groups()
    found = [3, 3, 3, 3, 0]
    assert outcomes == [(k, 3 * n, None) for k, n in zip(found, evals)] + [(None, evals[5], error)]
    assert stats.exists_index_lookups == 3 * 5
    # a run calls groups() for the for, then groups() and probe() per h, and
    # isEmpty per report, but no each(g): the error stops the last run at
    # its first h, and the one build calls each(g) 3 times and key(x) 5 times
    assert stats.builtin_calls == 5 * (1 + 3 * 2) + sum(found) + (1 + 2) + 3 + 5


NESTED_VALUES = ["a", "b", "c", "", MISSING, True, 1, ["a"]]


@st.composite
def nested_cases(draw):
    plain = st.sampled_from(NESTED_VALUES)
    group = st.one_of(st.lists(st.one_of(plain, st.just(RAISE)), max_size=4),
                      st.sampled_from([MISSING, RAISE]))
    groups = draw(st.lists(group, max_size=5))
    probes = draw(st.lists(st.one_of(plain, st.just(RAISE)), min_size=1, max_size=4))
    return groups, probes


@pytest.mark.parametrize("predicate", ["key(x) == probe()", "probe() == key(x)"])
def test_nested_index_agrees_with_scan_on_generated_cases(model, predicate):
    source = nested_rule(predicate=predicate)
    used_index = []

    @settings(max_examples=200, deadline=None)
    @given(nested_cases())
    def check(case):
        groups, probes = case
        scanned, scan_stats, _ = run_nested(model, source, groups, probes, None)
        found, stats, _ = run_nested(model, source, groups, probes, QueryCache())
        assert found == scanned
        assert stats.exists_predicate_evals == scan_stats.exists_predicate_evals
        used_index.append(stats.exists_index_lookups)

    check()
    assert sum(used_index) > 0


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
    (r15,) = [r for r in rulepack.load_rulepack(rulepack.default_rules_dir()).rules
              if r.name.startswith("r15-")]

    def run(cache):
        # getAttr is not cached, so its table entry sees every evaluation
        registry = builtins_mod.Registry()
        get_attr = registry.builtins["getAttr"]
        assert not get_attr.cached
        calls = []

        def counting(reg, model, args):
            calls.append(1)
            return get_attr.fn(reg, model, args)

        # every field of getAttr's record but fn, which is replaced
        fields = {name: getattr(get_attr, name) for name in type(get_attr).__slots__}
        registry.builtins = {**registry.builtins,
                             "getAttr": builtins_mod.Builtin(**{**fields, "fn": counting})}
        interp = make_interpreter(model, registry, cache)
        reports = [(r.message, r.file_path, r.line) for r in interp.run_rule(r15)]
        return reports, interp.stats, len(calls)

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
    config = CheckerConfig(project_root=str(root))
    on, off = run_checker(config, model=model), reference_check(config, model=model)
    assert by_rule(on.reports) == by_rule(off.reports)
    assert on.diagnostics == off.diagnostics == []
    assert sum(r.rule_name.startswith("r15-") for r in on.reports) == 15


def test_second_pack_run_adds_no_indexes(tmp_path):
    """Every container the pack indexes is a cached list, so the same
    object comes back on every evaluation and no index is built twice."""
    root = getbean_project(tmp_path, 10, 20)
    (root / "src/main/resources/props.xml").write_text(
        '<beans>\n  <bean id="p" class="com.g.Main">\n'
        '    <property name="name"/>\n  </bean>\n</beans>\n'
    )
    model = build_model(root)
    rules = rulepack.load_rulepack(rulepack.default_rules_dir()).rules
    registry = builtins_mod.Registry()
    cache = QueryCache()

    def run_pack():
        sink = []
        for rule in rules:
            Interpreter(model, registry, cache).run_rule(rule, sink)
        return sink

    first = run_pack()
    indexes = dict(cache.exists_indexes)
    # r15's bean-id lookup and r7's setter lookup are both indexed
    assert len({node_id for node_id, _ in indexes}) >= 2
    assert run_pack() == first
    assert cache.exists_indexes == indexes
