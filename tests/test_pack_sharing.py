"""What the shipped rule pack shares, pinned without timing.

run_checker runs the statements that rules open with once for all the
rules that share them (interpreter.plan_pack, compile_pack).  These tests
pin which rules of the shipped pack share which statements, that a rule
differing by one variable name or literal is not merged, and the number
of built-in calls a check of each benchmark workload evaluates, so that a
change that quietly stops sharing fails here.
"""

import re

import pytest
from benchgen import write_workload

from mecheck import rulepack, runner
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.interpreter import Interpreter, Shared, plan_pack

# Built-in calls a whole check of each seed-7 workload evaluates: the sum of
# every rule's EvalStats.builtin_calls, as the benchmark's
# interpreter.builtin_calls reads it.  Building an exists index evaluates
# f at every element once, and r12 runs its body once per listed suite
# member, 32 more calls on each workload; r3-r5 and r7 reading only a
# bean's children move none.
WORKLOAD_BUILTIN_CALLS = {
    "getbean-lookups": 63_675,
    "bean-props": 168_996,
    "java-wide": 52_102,
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
    return rulepack.load_rulepack(rulepack.default_rules_dir())


def test_shipped_pack_shares_the_bean_walk(pack):
    assert shared_steps(pack) == [
        ("for", "xml", ["r2", "r3", "r4", "r5", "r6", "r7"]),
        ("for", "bean", ["r3", "r4", "r5", "r6", "r7"]),
        ("if", None, ["r3", "r4", "r5", "r7"]),  # hasAttr(bean, "class")
        ("decl", "beanClassFQN", ["r3", "r4", "r5", "r7"]),
        ("if", None, ["r3", "r4", "r5", "r7"]),  # classExists(beanClassFQN)
        ("decl", "c", ["r3", "r4", "r5", "r7"]),  # locateClassFQN(beanClassFQN)
        ("for", "arg", ["r3", "r4", "r5"]),
        ("for", "c", ["r8", "r9", "r10"]),
        ("if", None, ["r8", "r9"]),
        ("for", "c", ["r11", "r12"]),
    ]


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


@pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILTIN_CALLS))
def test_workload_builtin_calls(tmp_path, monkeypatch, workload):
    root = write_workload(workload, tmp_path / "project")
    counted = []
    run_rule = Interpreter.run_rule

    def counting_run_rule(self, rule, sink=None):
        try:
            return run_rule(self, rule, sink)
        finally:
            counted.append(self.stats.builtin_calls)

    monkeypatch.setattr(Interpreter, "run_rule", counting_run_rule)
    summary = runner.run_checker(runner.CheckerConfig(project_root=str(root)))
    assert len(counted) == summary.rules_executed == 15 and not summary.diagnostics
    assert sum(counted) == WORKLOAD_BUILTIN_CALLS[workload]
