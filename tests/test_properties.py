import dataclasses
import random

import pytest

import genrules
from mecheck.builtins import Registry
from mecheck.model.project import build_model
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.rsl.printer import format_rule
from mecheck.runtime import interpreter as interp_mod
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.env import EnvStack
from mecheck.runtime.interpreter import Interpreter, RuntimeRuleError

BEAN_IDS = ["one", "two", "three"]

CTX_XML = (
    "<beans>\n"
    + "".join(f'  <bean id="{i}"/>\n' for i in BEAN_IDS)
    + "</beans>\n"
)


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("prop-proj")
    (root / "ctx.xml").write_text(CTX_XML)
    return build_model(root)


class BalancedEnv(EnvStack):
    """EnvStack that records push/pop balance per instance."""

    instances: list["BalancedEnv"] = []

    def __init__(self):
        super().__init__()
        self.pushes = 0
        self.pops = 0
        BalancedEnv.instances.append(self)

    def push(self):
        self.pushes += 1
        return super().push()

    def pop(self):
        self.pops += 1
        return super().pop()


def assert_envs_balanced():
    assert BalancedEnv.instances
    for env in BalancedEnv.instances:
        assert env.pushes == env.pops
        assert env.depth == 0
    BalancedEnv.instances.clear()


def run_valid_cases(model, seed, count, with_beanid):
    """Generated rules agree with the reference evaluator; returns the
    number of cases executed."""
    rng = random.Random(seed)
    executed = 0
    shadowed = 0
    for _ in range(count):
        gen = genrules.Gen(rng, with_beanid=with_beanid)
        stmts = gen.rule()
        source = genrules.render_rule(stmts, "gen-case", with_beanid=with_beanid)
        reports = Interpreter(model).run_rule(parse_rule(source))
        expected = genrules.oracle_reports(stmts, BEAN_IDS if with_beanid else None)
        assert [r.message for r in reports] == expected, source
        assert [r.ordinal for r in reports] == list(range(len(reports)))
        executed += 1
        shadowed += gen.shadow_count
    assert shadowed > count // 10  # the corpus really does shadow names
    return executed


def run_invalid_cases(model, seed, per_variant):
    """Rules with one out-of-scope read all raise; returns case count."""
    rng = random.Random(seed)
    executed = 0
    for variant in genrules.INVALID_VARIANTS:
        for _ in range(per_variant):
            source, leaked, _ = genrules.make_invalid_case(rng, variant)
            with pytest.raises(RuntimeRuleError) as err:
                Interpreter(model).run_rule(parse_rule(source))
            assert leaked in err.value.cause, source
            executed += 1
    return executed


def test_scoping_matches_reference_evaluator(model, monkeypatch):
    monkeypatch.setattr(interp_mod, "EnvStack", BalancedEnv)
    BalancedEnv.instances.clear()
    assert run_valid_cases(model, seed=20250816, count=700, with_beanid=False) == 700
    assert_envs_balanced()


def test_scoping_with_bean_loops(model, monkeypatch):
    monkeypatch.setattr(interp_mod, "EnvStack", BalancedEnv)
    BalancedEnv.instances.clear()
    assert run_valid_cases(model, seed=816, count=300, with_beanid=True) == 300
    assert_envs_balanced()


def test_out_of_scope_reads_raise(model, monkeypatch):
    monkeypatch.setattr(interp_mod, "EnvStack", BalancedEnv)
    BalancedEnv.instances.clear()
    assert run_invalid_cases(model, seed=4242, per_variant=60) == 300
    assert_envs_balanced()  # frames unwound even on errors


def test_generated_rules_round_trip_through_printer(model):
    rng = random.Random(99)
    for _ in range(150):
        with_beanid = rng.random() < 0.3
        gen = genrules.Gen(rng, with_beanid=with_beanid)
        source = genrules.render_rule(gen.rule(), "rt-case", with_beanid=with_beanid)
        first = parse_rule(source)
        second = parse_rule(format_rule(first))
        assert ast.structurally_equal(first, second), source


def differential_corpus(seed, valid, per_variant):
    """Parsed valid rules (a third with bean loops) and invalid ones."""
    rng = random.Random(seed)
    sources = []
    for i in range(valid):
        with_beanid = i % 3 == 0
        gen = genrules.Gen(rng, with_beanid=with_beanid)
        sources.append(genrules.render_rule(gen.rule(), "gen-case", with_beanid=with_beanid))
    for variant in genrules.INVALID_VARIANTS:
        for _ in range(per_variant):
            sources.append(genrules.make_invalid_case(rng, variant)[0])
    return [parse_rule(source) for source in sources]


def corpus_outcomes(model, rules, cache):
    """Per rule: its reports, its rule error text and its EvalStats."""
    registry = Registry()
    outcomes = []
    for rule in rules:
        interp = Interpreter(model, registry, cache)
        sink = []
        try:
            interp.run_rule(rule, sink)
            error = None
        except RuntimeRuleError as exc:
            error = str(exc)
        reports = [(r.message, r.file_path, r.line, r.ordinal) for r in sink]
        outcomes.append((reports, error, dataclasses.astuple(interp.stats)))
    return outcomes


def test_cache_on_and_off_agree_on_generated_rules(model, monkeypatch):
    monkeypatch.setattr(interp_mod, "EnvStack", BalancedEnv)
    BalancedEnv.instances.clear()
    rules = differential_corpus(seed=5150, valid=300, per_variant=30)
    # one cache across the corpus, as one run shares it across rules
    cache = QueryCache()
    on = corpus_outcomes(model, rules, cache)
    off = corpus_outcomes(model, rules, None)
    assert on == off
    assert cache.hits > 0
    assert sum(error is not None for _, error, _ in on) >= 5 * 30
    assert any(reports for reports, _, _ in on)
    assert_envs_balanced()
