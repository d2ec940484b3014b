"""The shared walk gives what running the rules one by one gives.

run_checker evaluates the statements that rules open with once for all of
them (interpreter.compile_pack).  Here packs of generated rules share a
generated prefix of declarations, for and if statements, then diverge
with tests/genrules.py statements, and run_checker must give the reports
(message, file and line, each rule's in the order it made them) and
diagnostics that running each rule alone with a fresh Interpreter gives,
and that the cache-free reference interpreter gives
(tests/reference_check.py).  Every evaluated built-in call is a run of
its body straight from the rule code, a Registry.call or a cache hit.
Written once, in its walk, each rule of such a pack has the diagnostics
that writing it alone gives, those of a shared statement at its own
positions.
"""

import random

import pytest

import genrules
from body_counts import BodyCounter
from mecheck import builtins as builtins_mod
from mecheck import rulepack, runner
from mecheck.builtins import BUILTINS, Registry
from mecheck.model.project import build_model
from mecheck.rsl.parser import MAX_NESTING, RslSyntaxError, parse_rule
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import (
    Interpreter,
    RuntimeRuleError,
    Rest,
    Shared,
    compile_pack,
    emit_pack,
    plan_pack,
)
from reference_check import by_rule, reference_run

CTX_XML = """<beans>
  <bean id="a" class="x.A">
    <property name="p"/>
    <property name="q"/>
  </bean>
  <bean id="b"/>
  <bean class="x.B" mode="on">
    <property name="z"/>
  </bean>
  <bean id="c" lazy="true"/>
</beans>
"""
MORE_XML = "<beans>\n  <bean id=\"d\">\n    <property name=\"p\"/>\n  </bean>\n</beans>\n"

# Steps over the model, by the variable they need bound: (header, variable
# it binds or None).  A header ending in "{" opens a for or if.
MODEL_STEPS = {
    None: [("for (file f in getXMLs()) {", "f")],
    "f": [('for (<bean> b in getElms(f, "bean")) {', "b"),
          ('if (elementExists(f, "bean")) {', None),
          ('for (<bean> b in getElms(f, "nothing")) {', "b")],  # an empty container
    "b": [('if (hasAttr(b, "id")) {', None),
          ('if (getAttr(b, "lazy") == "true") {', None),
          ('if (getAttr(b, "absent")) {', None),  # always MISSING
          ('for (<property> p in getElms(b, "property")) {', None),
          ('for (String e in getAttrs(b, "nothing*")) {', None),  # an empty container
          ('if (exists(<property> q in getElms(b, "property"))(getAttr(q, "name") == "p")) {',
           None),
          ('if (NOT exists(<property> q in getElms(b, "property"))'
           '(startsWith(getAttr(q, "name"), "z"))) {', None),
          ('String k = getAttr(b, "id");', None)],
}
# Taken for a bean without mode; for the bean with mode="on" the operand
# is text, a rule error.
FAILING_STEP = 'if (NOT getAttr(b, "mode")) {'
# A statement that always fails: substring's index must be an integer.
FAILING_STMT = 'String boom = substring("abc", "q");'


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared-proj")
    (root / "ctx.xml").write_text(CTX_XML)
    (root / "more.xml").write_text(MORE_XML)
    return root


def generated_prefix(rng, gen, fail_in_prefix):
    """Lines of a shared prefix, one statement a line; each "{" is closed
    after the tail.  gen's scopes end as the prefix leaves them."""
    lines, model_var = [], None
    shared_fail = fail_in_prefix
    for _ in range(rng.randrange(2, 6)):
        for _ in range(rng.randrange(0, 2)):
            scopes, decl = gen.scopes, ("assert",)
            while decl[0] != "decl":
                gen.scopes = [list(frame) for frame in scopes]
                decl = gen.stmt(depth=2)
            lines.extend(genrules.render_stmt(decl, 0))
        choices = list(MODEL_STEPS.get(model_var, ()))
        if model_var == "b" and shared_fail:
            choices, shared_fail = [(FAILING_STEP, None)], False
        if choices and rng.random() < 0.7:
            header, bound = rng.choice(choices)
            lines.append(header)
            if header.endswith("{"):
                gen.scopes.append([])
            if bound is not None:
                model_var = bound
            continue
        if rng.random() < 0.5:
            var = gen.bind_name()
            lines.append(f"for (String {var} in {genrules.render_s(gen.str_exp())}) {{")
            gen.scopes.append([var])
        else:
            lines.append(f"if ({genrules.render_b(gen.bool_exp())}) {{")
            gen.scopes.append([])
    if model_var != "b":
        lines.extend(['for (file f in getXMLs()) {', 'for (<bean> b in getElms(f, "bean")) {'])
        gen.scopes.extend([[], []])
    if shared_fail:
        lines.append(FAILING_STEP)
        gen.scopes.append([])
    return lines


def generated_tail(rng, gen):
    """A few statements after the prefix: genrules statements plus asserts
    whose reports carry the bean's file and line."""
    scopes = [list(frame) for frame in gen.scopes]
    lines = []
    for _ in range(rng.randrange(1, 4)):
        gen.scopes = [list(frame) for frame in scopes]
        if rng.random() < 0.3:
            attr = rng.choice(["id", "class", "lazy", "absent"])
            lines.append(f'assert (hasAttr(b, "{attr}")) {{ msg("no {attr} on %s", b); }}')
        else:
            lines.extend(genrules.render_stmt(gen.stmt(depth=1), 0))
    gen.scopes = scopes
    return lines


def render(name, prefix, tail, pad, indent):
    """Rule source; pad blank comment lines and the indent unit move every
    position, so each rule has its own line and column for each step."""
    lines = [f"// pad {i}" for i in range(pad)] + [f"Rule {name} {{"]
    depth = 1
    for line in prefix:
        lines.append(indent * depth + line)
        if line.endswith("{"):
            depth += 1
    lines.extend(indent * depth + line for line in tail)
    while depth > 1:
        depth -= 1
        lines.append(indent * depth + "}")
    lines.append("}")
    return "\n".join(lines) + "\n"


SHAPES = ["diverge", "same-but-name", "prefix-of-another", "shared-error", "own-error"]


def generated_pack(seed, shape, bad=None):
    """{file name: rule source} for one pack of the given shape; a bad
    statement, if given, goes into the shared prefix."""
    rng = random.Random(seed)
    gen = genrules.Gen(rng)
    prefix = generated_prefix(rng, gen, fail_in_prefix=shape == "shared-error")
    if bad is not None:
        prefix.insert(seed % (len(prefix) + 1), bad)
    tails = [generated_tail(rng, gen) for _ in range(rng.randrange(2, 4))]
    if shape == "same-but-name":
        tails = [tails[0]] * len(tails)
    elif shape == "prefix-of-another":
        # rule 0 ends with a for or if that rule 1 runs more statements after
        scopes, block = gen.scopes, ("decl",)
        while block[0] not in ("for", "if"):
            gen.scopes = [list(frame) for frame in scopes]
            block = gen.stmt(depth=1)
        tails[0] = genrules.render_stmt(block, 0)
        tails[1] = tails[0] + tails[1] + ['assert (NOT isEmpty("")) { msg("after"); }']
    elif shape == "own-error":
        where = rng.randrange(len(tails[1]) + 1)
        tails[1] = tails[1][:where] + [FAILING_STMT] + tails[1][where:]
    sources = {}
    for i, tail in enumerate(tails):
        pad, indent = rng.randrange(0, 4), rng.choice(["  ", "   ", "\t"])
        sources[f"p{2 * i}.rsl"] = render(f"shared-{i}", prefix, tail, pad, indent)
    # a rule that shares nothing runs between the sharing ones
    sources["p1.rsl"] = render("alone", ['for (file g in getXMLs()) {'],
                               ['assert (isEmpty("")) { msg("own %s", g); }'], 0, "  ")
    return sources


def rows(reports):
    return [(r.rule_name, r.message, r.file_path, r.line) for r in by_rule(reports)]


def one_by_one(rules, model):
    """Each rule alone, with a fresh Interpreter, as run_checker ran them
    before rules shared statements."""
    registry, cache = Registry(), QueryCache()
    sink, diagnostics = [], []
    for rule in rules:
        try:
            Interpreter(model, registry, cache).run_rule(rule, sink)
        except RuntimeRuleError as exc:
            diagnostics.append(str(exc))
    return rows(sink), diagnostics


def counted_check(monkeypatch, config, model):
    """run_checker, with its evaluated built-in calls counted, and its
    direct body runs and Registry.calls (see body_counts)."""
    counts = {"evaluated": 0}
    run_rule, counter = Interpreter.run_rule, BodyCounter()

    def counting_run_rule(self, rule, sink=None):
        try:
            return run_rule(self, rule, sink)
        finally:
            counts["evaluated"] += self.stats.builtin_calls

    monkeypatch.setattr(Interpreter, "run_rule", counting_run_rule)
    monkeypatch.setattr(Registry, "call", counter.call)
    monkeypatch.setattr(builtins_mod, "BUILTINS", counter.table)
    summary = runner.run_checker(config, model)
    monkeypatch.undo()
    counts["bodies"] = counter.total()
    return summary, counts


def assert_same_as_one_by_one(monkeypatch, rules_dir, project):
    rules = rulepack.load_rulepack(rules_dir).rules
    model = build_model(project)
    expected = one_by_one(rules, model)
    reference = reference_run(rules, model)
    assert (rows(reference.reports), reference.diagnostics) == expected
    config = runner.CheckerConfig(project_root=str(project), rules_dir=str(rules_dir))
    summary, counts = counted_check(monkeypatch, config, model)
    assert (rows(summary.reports), summary.diagnostics) == expected
    assert summary.rules_executed == len(rules)
    assert counts["evaluated"] == counts["bodies"] + summary.cache_stats["hits"]
    return rules, summary


# each id says the check under test runs with its query cache; the
# cache-free run is the reference's
@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape}-cache")
def test_shared_walk_matches_one_by_one(tmp_path, project, monkeypatch, shape):
    errors = 0
    for seed in range(12):
        rules_dir = tmp_path / f"{shape}-{seed}"
        rules_dir.mkdir()
        for name, source in generated_pack(seed, shape).items():
            (rules_dir / name).write_text(source)
        rules, summary = assert_same_as_one_by_one(monkeypatch, rules_dir, project)
        shared, alone = plan_pack(rules)
        assert isinstance(shared, Shared) and len(shared.rules) == len(rules) - 1
        assert isinstance(alone, Rest) and alone.rules == (1,)
        errors += bool(summary.diagnostics)
    if shape in ("shared-error", "own-error"):
        assert errors >= 3  # the rest never reach the error: a condition is false
    else:
        assert errors == 0


# A shared statement with a diagnostic of each kind, two in an indexed
# exists's sides, whatever the prefix has bound before it.
BAD_STMT = ('String bad = join(ghost, getNme(1), substring("a"), exists (<bean> o in'
            ' getElms(ghost, "bean")) (getAttr(o, "id", 1) == nope(zz)));')


@pytest.mark.parametrize("shape", SHAPES)
def test_a_pack_has_each_rules_own_diagnostics(shape):
    """Written once in its walk, each rule has the diagnostics that writing
    it alone gives: those of a shared statement at its own positions."""
    moved = 0
    for seed in range(12):
        sources = generated_pack(seed, shape, bad=BAD_STMT)
        rules = [parse_rule(sources[name]) for name in sorted(sources)]
        pack = emit_pack(rules, BUILTINS)
        assert [len(step.rules) for step, _ in pack.walks] == [len(rules) - 1, 1]
        alone = [emit_pack([rule], BUILTINS).diagnostics[0] for rule in rules]
        assert list(pack.diagnostics) == alone
        shared = [alone[k] for k in pack.walks[0][0].rules]
        assert all(len(found) >= 6 for found in shared)
        moved += len({tuple(found) for found in shared}) > 1  # at positions of their own
    assert moved >= 8


def test_shared_error_names_each_rule_at_its_own_position(tmp_path, project, monkeypatch):
    rules_dir = tmp_path / "rules"
    rules_dir.mkdir()
    prefix = ['for (file f in getXMLs()) {', 'for (<bean> b in getElms(f, "bean")) {',
              FAILING_STEP]
    tail = ['assert (hasAttr(b, "class")) { msg("no class on %s", b); }']
    (rules_dir / "a.rsl").write_text(render("first", prefix, tail, 0, "  "))
    (rules_dir / "b.rsl").write_text(render("second", prefix, tail, 2, "    "))
    _, summary = assert_same_as_one_by_one(monkeypatch, rules_dir, project)
    assert summary.diagnostics == [
        "rule first failed at line 4, column 15: expected a boolean condition, got text",
        "rule second failed at line 6, column 21: expected a boolean condition, got text",
    ]
    # the reports each rule made before the failing bean are kept
    assert [(r.rule_name, r.line) for r in summary.reports] == [("first", 6), ("second", 6)]


def test_a_later_rule_adds_no_report_and_raises_its_held_error(project):
    """The walk runs in its first rule's run_rule call and puts every
    rule's reports into that call's sink; a later rule's own call adds no
    report and raises the error the walk held for it, at its own position."""
    prefix = ['for (file f in getXMLs()) {', 'for (<bean> b in getElms(f, "bean")) {',
              FAILING_STEP]
    tail = ['assert (hasAttr(b, "class")) { msg("no class on %s", b); }']
    rules = [parse_rule(render("first", prefix, tail, 0, "  ")),
             parse_rule(render("second", prefix, tail, 2, "    "))]
    model, registry, cache = build_model(project), Registry(), QueryCache()
    interpreters = [Interpreter(model, registry, cache) for _ in rules]
    compile_pack(interpreters, emit_pack(rules, BUILTINS))
    sink, later = [], []
    with pytest.raises(RuntimeRuleError) as first:
        interpreters[0].run_rule(rules[0], sink)
    assert [(r.rule_name, r.line) for r in sink] == [("first", 6), ("second", 6)]
    with pytest.raises(RuntimeRuleError) as second:
        interpreters[1].run_rule(rules[1], later)
    assert later == []
    assert [(e.rule_name, e.line, e.column) for e in (first.value, second.value)] == [
        ("first", 4, 15), ("second", 6, 21)]


def nested_chain(levels, message):
    """The statements of a rule that nests `levels` deep: declarations,
    for and if statements, then one assert."""
    lines = []
    for i in range(levels - 1):
        lines.append(f'String d{i} = join("a", "{i}");' if i % 3 == 0 else "")
        lines.append(f"for (String v{i} in d{i - i % 3}) {{" if i % 2 else
                     f'if (startsWith(d{i - i % 3}, "a")) {{')
    lines.append(f'assert (isEmpty(d0)) {{ msg("{message} %s", d0); }}')
    return [line for line in lines if line]


def test_chain_nested_to_the_parser_bound_is_shared(tmp_path, project, monkeypatch):
    # the assert's argument is one level below the assert
    levels = MAX_NESTING - 1
    with pytest.raises(RslSyntaxError):
        parse_rule(render("deep", nested_chain(levels + 1, "x"), [], 0, " "))
    rules_dir = tmp_path / "rules"
    rules_dir.mkdir()
    for name in ("one", "two"):
        source = render(name, nested_chain(levels, name), [], 0, " ")
        (rules_dir / f"{name}.rsl").write_text(source)
    rules, summary = assert_same_as_one_by_one(monkeypatch, rules_dir, project)
    assert [r.message for r in summary.reports] == ["one a0", "two a0"]
    (step,), shared = plan_pack(rules), 1
    while isinstance(step.then[0], Shared):
        (step,), shared = step.then, shared + 1
    assert shared == len(nested_chain(levels, "x")) - 1  # every statement but the asserts
