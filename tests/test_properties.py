import random

import pytest

import genrules
from mecheck.builtins import Registry
from mecheck.model.project import build_model
from mecheck.rsl.parser import parse_rule
from mecheck.rsl.validator import UNDECLARED_VARIABLE, validate_rule
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import Interpreter, RuntimeRuleError
from rsl_printer import format_rule, structurally_equal

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


def report_rows(sink):
    return [(r.message, r.file_path, r.line, r.ordinal) for r in sink]


def stats_row(stats):
    """Every EvalStats counter, in field order."""
    return tuple(getattr(stats, name) for name in type(stats).__slots__)


def run_once(interp, rule):
    """One run of rule: its reports, its rule error text (or None) and
    the EvalStats counts it added."""
    before = stats_row(interp.stats)
    sink = []
    try:
        interp.run_rule(rule, sink)
        error = None
    except RuntimeRuleError as exc:
        error = str(exc)
    delta = tuple(b - a for a, b in zip(before, stats_row(interp.stats)))
    return report_rows(sink), error, delta


def assert_no_state_leak(interp, rule, first, source=None):
    """Running the compiled rule again on the same interpreter, even
    after a rule error, repeats the first run exactly: nothing a run
    binds survives into the next."""
    assert run_once(interp, rule) == first, source


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
        interp, rule = Interpreter(model), parse_rule(source)
        first = run_once(interp, rule)
        reports, error, _ = first
        assert error is None, source
        expected = genrules.oracle_reports(stmts, BEAN_IDS if with_beanid else None)
        assert [message for message, *_ in reports] == expected, source
        assert [ordinal for *_, ordinal in reports] == list(range(len(reports)))
        assert_no_state_leak(interp, rule, first, source)
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
            interp, rule = Interpreter(model), parse_rule(source)
            sink = []
            with pytest.raises(RuntimeRuleError) as err:
                interp.run_rule(rule, sink)
            assert leaked in err.value.cause, source
            first = (report_rows(sink), str(err.value), stats_row(interp.stats))
            assert_no_state_leak(interp, rule, first, source)
            executed += 1
    return executed


def test_scoping_matches_reference_evaluator(model):
    assert run_valid_cases(model, seed=20250816, count=700, with_beanid=False) == 700


def test_scoping_with_bean_loops(model):
    assert run_valid_cases(model, seed=816, count=300, with_beanid=True) == 300


def test_out_of_scope_reads_raise(model):
    assert run_invalid_cases(model, seed=4242, per_variant=60) == 300


def test_generated_rules_round_trip_through_printer(model):
    rng = random.Random(99)
    for _ in range(150):
        with_beanid = rng.random() < 0.3
        gen = genrules.Gen(rng, with_beanid=with_beanid)
        source = genrules.render_rule(gen.rule(), "rt-case", with_beanid=with_beanid)
        first = parse_rule(source)
        second = parse_rule(format_rule(first))
        assert structurally_equal(first, second), source


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
    """Per rule: its reports, its rule error text and its EvalStats;
    each rule runs twice on its interpreter and must repeat itself."""
    registry = Registry()
    outcomes = []
    for rule in rules:
        interp = Interpreter(model, registry, cache)
        first = run_once(interp, rule)
        assert_no_state_leak(interp, rule, first)
        outcomes.append(first)
    return outcomes


def test_cache_on_and_off_agree_on_generated_rules(model):
    rules = differential_corpus(seed=5150, valid=300, per_variant=30)
    # one cache across the corpus, as one run shares it across rules
    cache = QueryCache()
    on = corpus_outcomes(model, rules, cache)
    off = corpus_outcomes(model, rules, None)
    assert on == off
    assert cache.hits > 0
    assert sum(error is not None for _, error, _ in on) >= 5 * 30
    assert any(reports for reports, _, _ in on)


# Scope edges the generator does not write: a binding is not visible in
# its own container or initializer, and a declaration may shadow the loop
# variable or an outer declaration.
SCOPE_EDGES = [
    'Rule e1 { for (String x in x) { assert (isEmpty(x)) { msg("a"); } } }',
    'Rule e2 { String y = join(y, "a"); }',
    'Rule e3 { assert (exists(String x in x)(isEmpty(x))) { msg("a"); } }',
    'Rule e4 { for (String x in "ab") { String x = upperCase(x);'
    ' assert (isEmpty(x)) { msg("%s", x); } } }',
    'Rule e5 { String y = "a"; if (isEmpty("")) { String y = join(y, "b"); }'
    ' assert (isEmpty(y)) { msg("%s", y); } }',
]


def test_unbound_reads_are_the_validators_undeclared_variables(model):
    """The interpreter resolves names as the validator does: every
    "is not bound" rule error lies at a position validate_rule flags as
    undeclared-variable, so a rule with no diagnostics never raises one."""
    rules = differential_corpus(seed=7373, valid=300, per_variant=40)
    rules += [parse_rule(source) for source in SCOPE_EDGES]
    unbound = clean = 0
    for cache in (None, QueryCache()):
        for rule in rules:
            flagged = {
                (d.line, d.column)
                for d in validate_rule(rule)
                if d.code == UNDECLARED_VARIABLE
            }
            try:
                Interpreter(model, cache=cache).run_rule(rule)
            except RuntimeRuleError as exc:
                if exc.cause.startswith("variable '") and exc.cause.endswith("' is not bound"):
                    assert (exc.line, exc.column) in flagged, format_rule(rule)
                    unbound += 1
                    continue
            if not validate_rule(rule):
                clean += 1
    assert unbound >= 2 * (5 * 40 + 3)
    assert clean >= 2 * (300 + 2)
