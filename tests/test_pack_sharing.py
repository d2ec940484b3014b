"""What the shipped rule pack shares, pinned without timing.

run_checker runs the statements that rules open with once for all the
rules that share them (interpreter.plan_pack, compile_pack).  These tests
pin which rules of the shipped pack share which statements, that every
rule runs in exactly one walk, that a rule
differing by one variable name or literal is not merged, and what a check
of each benchmark workload evaluates and keeps: its built-in calls, so
that a change that quietly stops sharing fails here; its exists predicate
evaluations, which an index must count as the scan does; and the query
cache and exists index entries left after it, so that a list cached for
nothing or an index built on every evaluation fails here.
"""

import random
import re

import genrules
import pytest
from benchgen import write_workload

from mecheck import rulepack, runner
from mecheck.builtins import BUILTINS
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.interpreter import Interpreter, Rest, Shared, emit_pack, plan_pack

# Built-in calls a whole check of each seed-7 workload evaluates: the sum of
# every rule's EvalStats.builtin_calls, as the benchmark's
# interpreter.builtin_calls reads it.  From 63,675 / 168,996 / 52,102
# (getbean-lookups / bean-props / java-wide): r15's nested exists answered
# from one index over every XML file's beans evaluates no getElms per
# lookup, -5,892 / 0 / -910; r2 sharing the bean loop, hasAttr and getAttr
# instead of its elementExists guard, -4,088 / -7,078 / -2,208; r6 sharing
# the whole bean-class chain, -6,008 / -10,508 / -3,008.  Caching only
# model-wide built-ins and exists containers moves none, since a call
# counts whether the cache answers it or not.  From 47,687 / 151,410 /
# 45,976: r6 and r7 looking for the method in every class of
# getFamily(c), not in c alone, +480 / +360 / +1,286.  Their asserts call
# getFamily(c) where they called getMethods(c), and each index they build
# calls getMethods once per class of the family, here c alone, since the
# workloads' bean classes extend nothing: one call more per index.  From
# 48,167 / 151,770 / 47,262: r14 checking <import> resources, one getXMLs
# and two getChildElms per XML file (its root, then the root's <import>
# children, of which the workloads have none), +81 / +71 / +201 for their
# 40 / 35 / 100 XML files.  From 48,248 / 151,841 / 47,463: r7 reading
# a compound property name where no setter matches, +12 each: for each of
# the 3 injected r7 defects, indexOf and substring find the name's first
# part and isEmpty tests it twice; a property whose setter exists
# evaluates the same calls as before.
WORKLOAD_BUILTIN_CALLS = {
    "getbean-lookups": 48_260,
    "bean-props": 151_853,
    "java-wide": 47_475,
}
# The sum of every rule's EvalStats.exists_predicate_evals: what a scan of
# every exists counts, so no index may move it.  From 459,393 / 115,752 /
# 41,478: r6's and r7's outer exists over getFamily(c) counts one
# evaluation for c before the inner one's, +6,003 / +14,003 / +3,003,
# one per evaluation of their asserts.
WORKLOAD_PREDICATE_EVALS = {
    "getbean-lookups": 465_396,
    "bean-props": 129_755,
    "java-wide": 44_481,
}
# (query cache entries, exists index entries) after a check: the cache
# holds model-wide queries and exists containers, and each (exists node,
# container) pair is indexed once.  From 400 / 464 / 1,459 query cache
# entries: a getFamily(c) list for each bean class r6 and r7 check,
# +240 / +180 / +643; getMethods(c) is still cached once, as the inner
# container.  Each of those classes still has one index for r6 and one
# for r7, so the index entries did not move.
WORKLOAD_CACHE_ENTRIES = {
    "getbean-lookups": (640, 482),
    "bean-props": (644, 360),
    "java-wide": (2_102, 1_288),
}


def short(name):
    return name.split("-", 1)[0]


def shared_steps(rules):
    """(kind, variable, rule ids) of every shared statement, outermost
    first: kind is "for", "if" or "decl", variable the one it binds."""
    found = []

    def visit(step):
        if not isinstance(step, Shared):
            return
        stmt = step.stmts[0]
        kind = {ast.ForStmt: "for", ast.IfStmt: "if", ast.DeclStmt: "decl"}[type(stmt)]
        ids = [short(rules[k].name) for k in step.rules]
        found.append((kind, getattr(stmt, "var", None), ids))
        for part in step.then:
            visit(part)

    for step in plan_pack(rules):
        visit(step)
    return found


@pytest.fixture(scope="module")
def pack():
    return rulepack.load_rulepack(rulepack.default_rules_dir()).rules


def test_shipped_pack_shares_the_bean_walk(pack):
    assert shared_steps(pack) == [
        ("for", "xml", ["r2", "r3", "r4", "r5", "r6", "r7"]),
        ("for", "bean", ["r2", "r3", "r4", "r5", "r6", "r7"]),
        ("if", None, ["r2", "r3", "r4", "r5", "r6", "r7"]),  # hasAttr(bean, "class")
        ("decl", "beanClassFQN", ["r2", "r3", "r4", "r5", "r6", "r7"]),
        ("if", None, ["r3", "r4", "r5", "r6", "r7"]),  # classExists(beanClassFQN)
        ("decl", "c", ["r3", "r4", "r5", "r6", "r7"]),  # locateClassFQN(beanClassFQN)
        ("for", "arg", ["r3", "r4", "r5"]),
        ("for", "c", ["r8", "r9", "r10"]),
        ("if", None, ["r8", "r9"]),
        ("for", "c", ["r11", "r12"]),
    ]


def test_every_rule_sits_in_exactly_one_walk(pack):
    """A set of rules that share statements runs in one walk, and each
    rule that shares nothing in a one-rule walk of its own."""
    rng = random.Random(4242)
    generated = [parse_rule(genrules.render_rule(genrules.Gen(rng, with_beanid=i % 2 == 0).rule(),
                                                 f"gen-{i}", with_beanid=i % 2 == 0))
                 for i in range(30)]
    for rules in (pack, generated, pack + generated):
        walks = emit_pack(rules, BUILTINS).walks
        assert sorted(k for step, _ in walks for k in step.rules) == list(range(len(rules)))
        assert all(isinstance(step, Shared) == (len(step.rules) > 1) for step, _ in walks)
    alone = [[short(pack[k].name) for k in step.rules]
             for step in plan_pack(pack) if isinstance(step, Rest)]
    assert alone == [["r1"], ["r13"], ["r14"], ["r15"]]


def variant(rule, pattern, new):
    """A copy of rule with every match of pattern replaced, named x..."""
    source = (rulepack.default_rules_dir() / rule).read_text()
    changed, count = re.subn(pattern, new, source)
    assert count > 0
    return parse_rule(changed.replace("Rule r", "Rule x", 1))


@pytest.mark.parametrize("rule, pattern, new, shares_down_to", [
    # the bean loop's variable renamed: only the XML loop is shared
    ("r04-constructor-arg-name-field-map.rsl", r"\bbean\b(?!>)", "b", ("for", "xml")),
    # a literal of the constructor-arg loop changed: shared down to the class
    ("r04-constructor-arg-name-field-map.rsl", "<constructor-arg>", "<constructor-args>",
     ("decl", "c")),
    # a literal of the first statement changed: nothing is shared
    ("r09-runwith-no-test.rsl", '"RunWith", "class"', '"RunsWith", "class"', None),
])
def test_rules_differing_by_one_name_or_literal_are_not_merged(pack, rule, pattern, new,
                                                               shares_down_to):
    rules = pack + [variant(rule, pattern, new)]
    copy = short(rules[-1].name)
    holding = [(kind, var) for kind, var, ids in shared_steps(rules) if copy in ids]
    assert (holding[-1] if holding else None) == shares_down_to


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    """workload -> (the EvalStats of each rule, the query cache) after one
    whole check of its seed-7 project."""
    done = {}

    def check(workload):
        if workload not in done:
            root = write_workload(workload, tmp_path_factory.mktemp(workload))
            seen = []
            run_rule = Interpreter.run_rule

            def recording_run_rule(self, rule, sink=None):
                try:
                    return run_rule(self, rule, sink)
                finally:
                    seen.append(self)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Interpreter, "run_rule", recording_run_rule)
                summary = runner.run_checker(runner.CheckerConfig(project_root=str(root)))
            assert len(seen) == summary.rules_executed == 15 and not summary.diagnostics
            (cache,) = {id(interp.cache): interp.cache for interp in seen}.values()
            done[workload] = [interp.stats for interp in seen], cache
        return done[workload]

    return check


@pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILTIN_CALLS))
def test_workload_builtin_calls(checked, workload):
    stats, _ = checked(workload)
    assert sum(s.builtin_calls for s in stats) == WORKLOAD_BUILTIN_CALLS[workload]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PREDICATE_EVALS))
def test_workload_predicate_evals(checked, workload):
    stats, _ = checked(workload)
    assert sum(s.exists_predicate_evals for s in stats) == WORKLOAD_PREDICATE_EVALS[workload]
    assert sum(s.exists_index_lookups for s in stats) > 0


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CACHE_ENTRIES))
def test_workload_cache_entries(checked, workload):
    _, cache = checked(workload)
    entries = (cache.stats()["entries"], len(cache.exists_indexes))
    assert entries == WORKLOAD_CACHE_ENTRIES[workload]
