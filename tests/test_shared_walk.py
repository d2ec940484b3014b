"""The shared walk gives what running the rules one by one gives.

run_checker evaluates the statements that rules open with once for all of
them (interpreter.compile_pack).  Here packs of generated rules share a
generated prefix of declarations, for and if statements, then diverge
with tests/genrules.py statements, and run_checker must give the reports
(message, file, line, ordinal, in sink order) and diagnostics that running
each rule alone with a fresh Interpreter gives, with the query cache on
and off.  Every evaluated built-in call is either a Registry.call or a
cache hit.
"""

import random

import pytest

import genrules
from mecheck import rulepack, runner
from mecheck.builtins import Registry
from mecheck.model.project import build_model
from mecheck.rsl.parser import MAX_NESTING, RslSyntaxError, parse_rule
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import Interpreter, RuntimeRuleError, Shared, plan_pack

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


def generated_pack(seed, shape):
    """{file name: rule source} for one pack of the given shape."""
    rng = random.Random(seed)
    gen = genrules.Gen(rng)
    prefix = generated_prefix(rng, gen, fail_in_prefix=shape == "shared-error")
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
    return [(r.rule_name, r.message, r.file_path, r.line, r.ordinal) for r in reports]


def one_by_one(rules, model, use_cache):
    """Each rule alone, with a fresh Interpreter, as run_checker ran them
    before rules shared statements."""
    registry, cache = Registry(), QueryCache() if use_cache else None
    sink, diagnostics = [], []
    for rule in rules:
        try:
            Interpreter(model, registry, cache).run_rule(rule, sink)
        except RuntimeRuleError as exc:
            diagnostics.append(str(exc))
    return rows(sink), diagnostics


def counted_check(monkeypatch, config, model):
    """run_checker, with its evaluated built-in calls and Registry.calls
    counted."""
    counts = {"evaluated": 0, "registry": 0}
    run_rule, call = Interpreter.run_rule, Registry.call

    def counting_run_rule(self, rule, sink=None):
        try:
            return run_rule(self, rule, sink)
        finally:
            counts["evaluated"] += self.stats.builtin_calls

    def counting_call(self, name, args, model):
        counts["registry"] += 1
        return call(self, name, args, model)

    monkeypatch.setattr(Interpreter, "run_rule", counting_run_rule)
    monkeypatch.setattr(Registry, "call", counting_call)
    summary = runner.run_checker(config, model)
    monkeypatch.undo()
    return summary, counts


def assert_same_as_one_by_one(monkeypatch, rules_dir, project, use_cache):
    rules = rulepack.load_rulepack(rules_dir)
    model = build_model(project)
    expected = one_by_one(rules, model, use_cache)
    config = runner.CheckerConfig(project_root=str(project), rules_dir=str(rules_dir),
                                  use_cache=use_cache)
    summary, counts = counted_check(monkeypatch, config, model)
    assert (rows(summary.reports), summary.diagnostics) == expected
    assert summary.rules_executed == len(rules)
    hits = summary.cache_stats.get("hits", 0)
    assert counts["evaluated"] == counts["registry"] + hits
    return rules, summary


@pytest.mark.parametrize("use_cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("shape", SHAPES)
def test_shared_walk_matches_one_by_one(tmp_path, project, monkeypatch, shape, use_cache):
    errors = 0
    for seed in range(12):
        rules_dir = tmp_path / f"{shape}-{seed}"
        rules_dir.mkdir()
        for name, source in generated_pack(seed, shape).items():
            (rules_dir / name).write_text(source)
        rules, summary = assert_same_as_one_by_one(monkeypatch, rules_dir, project, use_cache)
        shared = plan_pack(rules)
        assert len(shared) == 1 and len(shared[0].rules) == len(rules) - 1
        errors += bool(summary.diagnostics)
    if shape in ("shared-error", "own-error"):
        assert errors >= 3  # the rest never reach the error: a condition is false
    else:
        assert errors == 0


def test_shared_error_names_each_rule_at_its_own_position(tmp_path, project, monkeypatch):
    rules_dir = tmp_path / "rules"
    rules_dir.mkdir()
    prefix = ['for (file f in getXMLs()) {', 'for (<bean> b in getElms(f, "bean")) {',
              FAILING_STEP]
    tail = ['assert (hasAttr(b, "class")) { msg("no class on %s", b); }']
    (rules_dir / "a.rsl").write_text(render("first", prefix, tail, 0, "  "))
    (rules_dir / "b.rsl").write_text(render("second", prefix, tail, 2, "    "))
    _, summary = assert_same_as_one_by_one(monkeypatch, rules_dir, project, True)
    assert summary.diagnostics == [
        "rule first failed at line 4, column 15: expected a boolean condition, got text",
        "rule second failed at line 6, column 21: expected a boolean condition, got text",
    ]
    # the reports each rule made before the failing bean are kept
    assert [(r.rule_name, r.line) for r in summary.reports] == [("first", 6), ("second", 6)]


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
    for use_cache in (True, False):
        rules, summary = assert_same_as_one_by_one(monkeypatch, rules_dir, project, use_cache)
        assert [r.message for r in summary.reports] == ["one a0", "two a0"]
    (step,), shared = plan_pack(rules), 1
    while isinstance(step.then[0], Shared):
        (step,), shared = step.then, shared + 1
    assert shared == len(nested_chain(levels, "x")) - 1  # every statement but the asserts
