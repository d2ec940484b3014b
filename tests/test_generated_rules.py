"""Rules compiled to generated Python run as the closure compiler ran them.

The interpreter writes each walk of the pack, one for each set of rules
that share statements and one for each other rule, as Python source
(emit_pack, emit_walk), in units it compiles one by one
when a check runs.  tests/reference_interpreter.py is the closure
compiler it replaced.  Here both run the genrules corpus (valid rules and
rules with every kind of mistake), the shipped pack on the fixture
projects and a bench workload, packs with rule errors in shared
statements and rules nested to the parser's bound, each with a query
cache; each rule's reports in the order it made them, rule errors with
their positions, diagnostics and EvalStats must be equal, and the reports
and rule errors those of the reference run with no cache
(tests/reference_check.py).
Rule text must stay out of the generated source, loading the pack must
compile nothing and compile_pack must leave nothing to compile.  Each
generated function has one error handler, and a rule error keeps its
position in every context its line can sit in.  What a literal or a
built-in's declared result settles is not tested at run time: not a
guard clause, not a list test of a for or exists container.
"""

import ast as pyast
import builtins
import re
import types
from pathlib import Path

import pytest

import reference_interpreter as ref
from benchgen import write_workload
from mecheck import builtins as builtins_mod
from mecheck import cli, rulepack, runner
from mecheck.builtins import BUILTINS, Builtin, Registry
from mecheck.model.project import build_model
from mecheck.rsl import ast
from mecheck.rsl.parser import MAX_NESTING, RslSyntaxError, parse_rule
from mecheck.runtime import interpreter as gen
from mecheck.runtime.cache import QueryCache
from reference_check import by_rule, reference_run
from test_exists_index import NESTED_SHAPES, NestedRegistry
from test_properties import differential_corpus
from test_shared_walk import CTX_XML, MORE_XML, SHAPES, generated_pack, nested_chain, render

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ENGINES = {"generated": gen, "closures": ref}


def stats_row(stats):
    return tuple(getattr(stats, name) for name in type(stats).__slots__)


def walk_of(rule):
    """The code of rule written alone: the one walk of its one-rule pack."""
    ((_, generated),) = gen.emit_pack([rule], BUILTINS).walks
    return generated


def check(engine, rules, model):
    """What run_checker does with the rules, run by engine: reports (each
    rule's in the order it made them), rule errors, each rule's EvalStats
    and the cache's entries."""
    registry, cache = Registry(), QueryCache()
    interpreters = [engine.Interpreter(model, registry, cache) for _ in rules]
    engine.compile_pack(interpreters, gen.emit_pack(rules, registry.builtins)
                        if engine is gen else rules)
    sink, errors = [], []
    for interp, rule in zip(interpreters, rules):
        try:
            interp.run_rule(rule, sink)
        except engine.RuntimeRuleError as exc:
            errors.append((str(exc), exc.rule_name, exc.cause, exc.line, exc.column))
    reports = [(r.rule_name, r.message, r.file_path, r.line) for r in by_rule(sink)]
    entries = (cache.stats(), len(cache.exists_indexes))
    return reports, errors, [stats_row(i.stats) for i in interpreters], entries


def alone(engine, rule, model, cache):
    """One rule run twice on one interpreter: reports, error, EvalStats."""
    interp = engine.Interpreter(model, Registry(), cache)
    runs = []
    for _ in range(2):
        sink = []
        try:
            interp.run_rule(rule, sink)
            error = None
        except engine.RuntimeRuleError as exc:
            error = (str(exc), exc.line, exc.column)
        runs.append(([(r.message, r.file_path, r.line) for r in sink], error))
    return runs, stats_row(interp.stats)


def assert_same_checks(rules, model):
    got = check(gen, rules, model)
    assert got == check(ref, rules, model)
    reports, errors, _, _ = got
    uncached = reference_run(rules, model)
    assert [r._fields() for r in by_rule(uncached.reports)] == reports
    assert uncached.diagnostics == [text for text, *_ in errors]
    return got


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    root = tmp_path_factory.mktemp("generated-proj")
    (root / "ctx.xml").write_text(CTX_XML)
    (root / "more.xml").write_text(MORE_XML)
    return root


@pytest.fixture(scope="module")
def pack():
    return rulepack.load_rulepack(rulepack.default_rules_dir()).rules


def test_genrules_corpus_runs_as_the_closure_compiler_ran_it(project):
    model = build_model(project)
    rules = differential_corpus(seed=2718, valid=240, per_variant=25)
    errors = 0
    # one cache each across the corpus, then none: the interpreter makes
    # its own, and the reference runs with no cache
    for cache_on in (True, False):
        caches = {name: QueryCache() if cache_on else None for name in ENGINES}
        for rule in rules:
            got = alone(gen, rule, model, caches["generated"])
            assert got == alone(ref, rule, model, caches["closures"]), rule.name
            errors += got[0][0][1] is not None
        if cache_on:
            assert caches["generated"].stats() == caches["closures"].stats()
    assert errors >= 150  # most invalid rules fail when they run


def rows(diagnostics):
    return [(d.code, d.message, d.line, d.column) for d in diagnostics]


def test_diagnostics_are_the_closure_compilers(project):
    rules = differential_corpus(seed=99, valid=120, per_variant=25)
    model = build_model(project)
    found = 0
    for rule in rules:
        closure = rows(ref.Interpreter(model, cache=QueryCache()).compile_rule(rule)[2])
        assert rows(gen.emit_pack([rule], BUILTINS).diagnostics[0]) == closure
        found += bool(closure)
    assert found >= 5 * 25


@pytest.mark.parametrize("root", sorted(p.parent for p in FIXTURES.glob("**/expected.json")),
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_shipped_pack_on_fixtures(pack, root):
    assert_same_checks(pack, build_model(root))


def test_shipped_pack_on_a_workload(pack, tmp_path):
    model = build_model(write_workload("getbean-lookups", tmp_path / "project"))
    reports, errors, stats, _ = assert_same_checks(pack, model)
    assert reports and not errors and sum(s[0] for s in stats) > 10_000


@pytest.mark.parametrize("shape", SHAPES)
def test_packs_with_shared_statements(project, shape):
    model = build_model(project)
    stopped = 0
    for seed in range(8):
        rules = [parse_rule(source) for source in generated_pack(seed, shape).values()]
        _, errors, _, _ = assert_same_checks(rules, model)
        stopped += bool(errors)
    assert stopped or shape not in ("shared-error", "own-error")


@pytest.mark.parametrize("shape", NESTED_SHAPES)
def test_nested_exists_shapes(project, shape):
    """Each nested shape of tests/test_exists_index.py, whose outer index
    may be absent while an inner one answers, counts as the closures did."""
    groups, probes, source, _ = NESTED_SHAPES[shape]
    rule, model = parse_rule(source), build_model(project)

    def run(engine):
        registry = NestedRegistry(groups)
        interp, outcomes = engine.Interpreter(model, registry, QueryCache()), []
        for probe in probes:
            registry.current = probe
            try:
                outcomes.append(len(interp.run_rule(rule)))
            except engine.RuntimeRuleError as exc:
                outcomes.append(str(exc))
            outcomes.append(stats_row(interp.stats))
        return outcomes

    assert run(gen) == run(ref)


# A condition of each node kind, with values that are not a bool: text,
# a number, MISSING (false) and a list; only ==, exists, AND, OR, NOT and a
# bool built-in skip the truth check.
CONDITIONS = ['t', '(t)', '"x"', "1", "m", "l", 'getAttr(b, "id")', '(hasAttr(b, "id"))', "NOT m",
              'getAttr(b, "id") == t', "m OR isEmpty(t)", 'isEmpty("") AND t', "NOT (l)"]


@pytest.mark.parametrize("cond", CONDITIONS)
def test_conditions_of_every_node_kind(project, cond):
    source = ('Rule c {\n  for (file f in getXMLs()) {\n'
              '  for (<bean> b in getElms(f, "bean")) {\n'
              '    String t = "text";\n    String m = getAttr(b, "nothing");\n'
              '    String l = getAttrs(b, "*");\n'
              f'    if ({cond}) {{ assert (isEmpty("x")) {{ msg("taken %s", b); }} }}\n'
              '  }\n  }\n}\n')
    rule, model = parse_rule(source), build_model(project)
    got = alone(gen, rule, model, None)
    assert got == alone(ref, rule, model, None)
    (_, error), _ = got[0]
    if cond in ("t", "(t)", '"x"', "l", "NOT (l)"):
        assert error is not None and "expected a boolean condition" in error[0]


def deepest(make):
    """The source make(n) for the largest n the parser accepts."""
    n = 1
    while True:
        try:
            parse_rule(make(n + 1))
        except RslSyntaxError:
            return make(n)
        n += 1


def asserting(cond):
    return (f'Rule deep {{\n  for (file f in getXMLs()) {{\n'
            f'    assert ({cond}) {{ msg("deep %s", f); }}\n  }}\n}}\n')


def exists_chain(n):
    """exists nested n deep, the innermost two an indexed nested pair."""
    pred = 'upperCase(x0) == "B"'
    for i in range(n):
        pred = f'exists (String x{i} in join("a", "{i}")) ({pred})'
    return asserting(pred)


def and_chain(n):
    cond = 'isEmpty("")'
    for i in range(n):
        cond = f'startsWith("a{i}", "a") AND {cond}' if i % 2 else f'isEmpty("{i}") OR {cond}'
    return asserting(cond)


DEEP = {
    "exists": exists_chain,
    "and-or": and_chain,
    "not": lambda n: asserting("NOT " * n + 'isEmpty("")'),
    "statements": lambda n: render("chain", nested_chain(n, "chain"), [], 0, " "),
}


def test_rules_nested_to_the_parser_bound(project):
    model = build_model(project)
    rules = [parse_rule(deepest(make).replace("Rule deep ", f"Rule deep-{name} "))
             for name, make in DEEP.items()]
    assert all(MAX_NESTING - 4 <= max_depth(rule) for rule in rules)
    # each rule and a copy, named apart so each one's reports can be told
    # from the other's, that shares every statement with it
    copies = [ast.Rule(f"{rule.name}-copy", rule.body, rule.span) for rule in rules]
    reports, errors, _, _ = assert_same_checks(rules + copies, model)
    assert not errors and len(reports) >= 2
    for name, rule in zip(DEEP, rules):
        # code nested too deep for one CPython function went into units of its own
        assert (len(walk_of(rule).units) > 1) == (name != "not")
        assert alone(gen, rule, model, QueryCache()) == alone(ref, rule, model, QueryCache())


def max_depth(node, depth=0):
    """How deep the rule's statements and expressions nest."""
    children = [c for name in node.__slots__ for c in (
        getattr(node, name) if isinstance(getattr(node, name), tuple) else (getattr(node, name),))
        if isinstance(c, (ast.Stmt, ast.Exp, ast.MsgStmt))]
    return max([max_depth(c, depth + 1) for c in children], default=depth)


# Text that means something in Python, as rule text holds it: each is
# written into RSL string literals, escaped as RSL escapes '"' and '\\'.
PYTHON_TEXT = ['"""', "'''", "\\", "\\n", "{}", "{0!r}", "%d %% %(x)s", "# not a comment",
               '__import__("os").system("true")', "lambda: None", '" + K + "']
HOSTILE_RULE = """\
Rule {name} {{
  for (file slots in getXMLs()) {{
    String def = "{text}";
    String lambda = join(def, "{text}");
    for (<bean> None in getElms(slots, "bean")) {{
      if (NOT (getAttr(None, "id") == "{text}")) {{
        assert (startsWith(lambda, "{text}#")) {{
          msg("{text} %s {{}} %s '{text}'", lambda, None);
        }}
      }}
    }}
  }}
}}
"""
NAMES = ["def", "lambda", "None", "slots", "__import__", "K", "run", "print", "exec", "self",
         "builtins"]


def hostile_rules():
    sources = [HOSTILE_RULE.format(name=name, text=text.replace("\\", "\\\\").replace('"', '\\"'))
               for name, text in zip(NAMES, PYTHON_TEXT)]
    return [parse_rule(source) for source in sources]


def test_rule_text_stays_data(project):
    rules = hostile_rules()
    assert {rule.name for rule in rules} == set(NAMES)
    texts = {stmt.init.value for rule in rules for stmt in rule.body[0].body[:1]}
    assert texts == set(PYTHON_TEXT)
    model = build_model(project)
    reports, errors, _, _ = assert_same_checks(rules, model)
    assert len(reports) >= len(rules) and not errors
    assert {r[1].split(" ")[0] for r in reports} >= {"\"\"\"", "{}", "\\n"}
    generated = [walk_of(rule) for rule in rules]
    generated += [g for _, g in gen.emit_pack(rules, BUILTINS).walks]
    assert len(gen.plan_pack(rules)) == 1
    sources = [source for g in generated for _, _, source in g.units]
    for source in sources:
        tree = pyast.parse(source)
        # no string in the source: every text is read from the constants K
        assert not [n for n in pyast.walk(tree) if isinstance(n, pyast.Constant)
                    and isinstance(n.value, (str, bytes))], source
        assert not set(source) & set("\"'\\#{}%")
        names = {n.id for n in pyast.walk(tree) if isinstance(n, pyast.Name)}
        assert not names & (set(NAMES) - {"K"}), source
        for text in PYTHON_TEXT + ["lambda", "slots", "__import__", "print"]:
            assert text not in source, (text, source)


def test_loading_the_pack_compiles_nothing(monkeypatch, pack):
    def refuse(*args, **kwargs):
        raise AssertionError("compile or exec while loading rules")

    monkeypatch.setattr(builtins, "compile", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    rules = rulepack.load_rulepack(rulepack.default_rules_dir()).rules
    assert [rule.name for rule in rules] == [rule.name for rule in pack]
    for rule in differential_corpus(seed=31, valid=40, per_variant=5):
        gen.emit_pack([rule], BUILTINS)


def test_a_check_writes_each_rules_code_once(monkeypatch):
    """One check of the shipped pack writes its code once, all of it as
    the pack loads: a walk for each of its three sets of rules that share
    statements, and one for each of the four other rules."""
    written, loading = [], [False]
    load = rulepack.load_rulepack

    def loading_pack(rules_dir):
        loading[0] = True
        try:
            return load(rules_dir)
        finally:
            loading[0] = False

    def writing(step, *args, emit=gen.emit_walk):
        written.append((len(step.rules) > 1, loading[0]))
        return emit(step, *args)

    monkeypatch.setattr(gen, "emit_walk", writing)
    monkeypatch.setattr(rulepack, "load_rulepack", loading_pack)
    config = runner.CheckerConfig(project_root=str(FIXTURES / "combined-clean"))
    assert runner.run_checker(config).rules_executed == 15
    assert sorted(written) == [(False, True)] * 4 + [(True, True)] * 3


def test_a_namespace_does_not_keep_its_function(project, pack):
    model = build_model(project)
    interpreters = [gen.Interpreter(model, Registry(), QueryCache()) for _ in pack]
    gen.compile_pack(interpreters, gen.emit_pack(pack, BUILTINS))
    functions = [interp.compile_rule(rule) for interp, rule in zip(interpreters, pack)]
    generated = {code for fn in functions
                 for code in [fn] + [cell.cell_contents for cell in fn.__closure__ or ()]
                 if is_generated(code)}
    assert len(generated) == len(pack) - sum(len(s.rules) - 1 for s in gen.plan_pack(pack))
    for fn in generated:
        assert fn.__code__.co_filename.startswith("<rule r")
        assert not any(is_generated(value) for value in fn.__globals__.values())


def is_generated(value):
    return isinstance(value, types.FunctionType) and value.__code__.co_filename.startswith("<rule")


TRACED_JAVA = """\
package p;
public class Main {
  public void setName(String n) { }
  void start() { new ClassPathXmlApplicationContext("ctx.xml"); }
}
"""
TRACED_XML = '<beans><bean id="m" class="p.Main"><property name="name"/></bean></beans>\n'


@pytest.mark.parametrize("name, rule", [("pathExists", "r1-xml-path-check"),
                                        ("upperCase", "r7-property-setter-map")])
def test_a_traceback_through_generated_code_names_the_rule(tmp_path, monkeypatch, capsys, name,
                                                           rule):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "Main.java").write_text(TRACED_JAVA)
    (tmp_path / "ctx.xml").write_text(TRACED_XML)
    record = BUILTINS[name]

    def broken(registry, model, args):
        raise ValueError("broken built-in")

    monkeypatch.setitem(BUILTINS, name, Builtin(name, broken, record.arity, record.checks,
                                                record.missing, record.on_missing,
                                                record.cached, record.result))
    assert cli.main(["--project", str(tmp_path), "--no-fail"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "ValueError: broken built-in" in err
    # the innermost frame of generated code is the call's, in the rule's own code
    frames = [line for line in err.splitlines() if 'File "<rule' in line]
    assert frames[-1].startswith(f'  File "<rule {rule}>"')


def test_compiling_the_pack_leaves_nothing_to_compile(monkeypatch, project, pack):
    """compile_pack compiles every rule, shared or not, before any runs."""
    model, cache = build_model(project), QueryCache()
    interpreters = [gen.Interpreter(model, Registry(), cache) for _ in pack]
    gen.compile_pack(interpreters, gen.emit_pack(pack, BUILTINS))

    def refuse(*args, **kwargs):
        raise AssertionError("compile or exec after compile_pack")

    monkeypatch.setattr(builtins, "compile", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    sink = []
    for interp, rule in zip(interpreters, pack):
        interp.run_rule(rule, sink)
    assert sink


def own_nodes(function):
    """The nodes of a function's body, those of the functions it defines
    left out."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, pyast.FunctionDef):
            stack.extend(pyast.iter_child_nodes(node))


RAISING = ("call(", "get(", "truth(", "unbound(")
DIRECT = "(registry, model, ["  # a built-in's body called straight from the rule code


def test_each_generated_function_has_one_handler(pack):
    """In the shipped pack's code, a call, a truth check or an unbound read
    is a plain line in its line table, which names the built-in exactly on
    the lines that call its body directly; the only try blocks are one per
    function and one per step of a walk.  Each rule's code written alone,
    a one-rule walk of one step, is checked too."""
    steps = gen.plan_pack(pack)
    generated = [g for _, g in gen.emit_pack(pack, BUILTINS).walks]
    generated += [walk_of(rule) for rule in pack]

    def count(step):
        return 1 + sum(map(count, step.then)) if isinstance(step, gen.Shared) else 1

    functions = tries = directs = 0
    for g in generated:
        for _, _, source in g.units:
            tree = pyast.parse(source)
            for function in [n for n in pyast.walk(tree) if isinstance(n, pyast.FunctionDef)]:
                handlers = [h.type.id for n in own_nodes(function) if isinstance(n, pyast.Try)
                            for h in n.handlers]
                assert handlers.count("errors") == 1, source
                functions += 1
            tries += sum(isinstance(n, pyast.Try) for n in pyast.walk(tree))
            (table,) = {n.args[1].id for n in pyast.walk(tree) if isinstance(n, pyast.Call)
                        and getattr(n.func, "id", None) == "placed"}
            table = g.constants[int(table[1:])]
            lines = source.splitlines()
            raising = {i for i, text in enumerate(lines, 1)
                       if any(s in text for s in (*RAISING, DIRECT))}
            direct = {i for i, text in enumerate(lines, 1) if DIRECT in text}
            assert set(table) == raising, source
            assert all(isinstance(rule_name, str) for rule_name, _, _, _ in table.values())
            assert {i for i, (_, _, _, name) in table.items() if name is not None} == direct
            for i in direct:  # "t = cN(registry, model, [...]) ...": cN is the named body
                body = lines[i - 1].split(" = ", 1)[1].split("(", 1)[0]
                assert g.constants[int(body[1:])] is BUILTINS[table[i][3]].fn
            directs += len(direct)
    assert tries == functions + sum(map(count, steps)) + len(pack)
    assert directs > 0


POSITIONS_XML = """\
<beans>
  <bean id="a" n="0" want="a"/>
  <bean id="b" n="1"/>
  <bean id="c" n="q"/>
</beans>
"""
BEANS = ('for (file f in getXMLs()) {\n'
         '  for (<bean> b in getElms(f, "bean")) {\n')
DEEP_LOOPS = "".join(f"for (file g{i} in getXMLs()) {{\n" for i in range(9))
# name: (the statements in the loop over beans, the text at which the rule
# fails, the cause); "substring(" fails for the bean with n="q", and the
# deep rules' last statement is in a unit split off by nesting
POSITIONED = {
    "keyed-fails": ('if (exists (<bean> x in getElms(f, "bean"))'
                    ' (substring(getAttr(x, "id"), getAttr(x, "n")) == getAttr(b, "want"))) {\n'
                    '  assert (isEmpty("x")) { msg("found for %s", b); }\n}\n',
                    'substring(getAttr(x', "'substring' argument 2 must be an integer"),
    "probe-fails": ('if (exists (<bean> x in getElms(f, "bean"))'
                    ' (getAttr(x, "id") == substring("abc", getAttr(b, "n")))) {\n'
                    '  assert (isEmpty("x")) { msg("found for %s", b); }\n}\n',
                    'substring("abc"', "'substring' argument 2 must be an integer"),
    "head-own-fails": ('String s = substring("abc", getAttr(b, "n"));\n'
                       'assert (isEmpty(substring(s, getAttr(b, "want")))) { msg("%s", b); }\n',
                       'substring(s', "'substring' argument 2 must be an integer"),
    "head-fails": ('String s = substring("abc", getAttr(b, "n"));\n'
                   'assert (isEmpty(s)) { msg("long %s", b); }\n',
                   'substring("abc"', "'substring' argument 2 must be an integer"),
    "head-fails-too": ('String s = substring("abc", getAttr(b, "n"));\n'
                       'assert (startsWith(s, "b")) { msg("%s", b); }\n',
                       'substring("abc"', "'substring' argument 2 must be an integer"),
    "deep-truth": (DEEP_LOOPS + 'if (getAttr(b, "id")) { assert (isEmpty("")) { msg("t"); } }\n'
                   + "}\n" * 9, 'getAttr(b, "id")) {', "expected a boolean condition, got text"),
    "deep-unbound": (DEEP_LOOPS + 'assert (isEmpty(zz)) { msg("u"); }\n' + "}\n" * 9,
                     "zz", "variable 'zz' is not bound"),
}


def positioned_rule(k, name):
    """The rule name of POSITIONED, k blank lines and k spaces down and
    right of the others', so each has its own positions."""
    body = BEANS + POSITIONED[name][0] + "  }\n}\n"
    lines = [" " * k + line for line in body.splitlines()]
    return "\n" * k + f"Rule {name} {{\n" + "\n".join(lines) + "\n}\n"


def test_rule_error_positions_in_each_generated_context(tmp_path):
    """A rule error keeps its rule's position wherever its line sits: in
    the loop an exists falls back to when its index declines (the keyed
    side fails at one element), in the probe's function, in a unit split
    off by nesting, in a shared head (each rule at its own position) and
    in a rule's own step.  tests/test_exists_index.py's NESTED_SHAPES
    covers the nested index's sides."""
    (tmp_path / "ctx.xml").write_text(POSITIONS_XML)
    model = build_model(tmp_path)
    sources = [positioned_rule(k, name) for k, name in enumerate(POSITIONED)]
    rules = [parse_rule(source) for source in sources]
    assert any(isinstance(step.stmts[0], ast.DeclStmt) and len(step.rules) == 3
               for step in shared_steps(gen.plan_pack(rules)))
    for name in ("deep-truth", "deep-unbound"):
        units = walk_of(rules[list(POSITIONED).index(name)]).units
        assert not any(s in units[-1][2] for s in ("truth(", "unbound("))
    expected = []
    for source, (name, (_, text, _)) in zip(sources, POSITIONED.items()):
        before = source[:source.index(text)]
        expected.append((name, before.count("\n") + 1, len(before.split("\n")[-1]) + 1))
    for group in [[rule] for rule in rules] + [rules]:
        _, errors, _, _ = assert_same_checks(group, model)
        names = {rule.name for rule in group}
        assert [row[1:2] + row[3:] for row in errors] == [e for e in expected if e[0] in names]
        assert all(cause.startswith(POSITIONED[name][2]) for _, name, cause, _, _ in errors)


def shared_steps(steps):
    for step in steps:
        if isinstance(step, gen.Shared):
            yield step
            yield from shared_steps(step.then)


def producer(g, tree, name):
    """The built-in whose call gives the temporary name in a unit's tree:
    through the cache (get(key_of(cN, a), ...)), the checked call
    (call(cN, ...)) or a body called directly (cF(registry, ...))."""
    (value,) = [n.value for n in pyast.walk(tree) if isinstance(n, pyast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == [name]]
    call = value.body if isinstance(value, pyast.IfExp) else value
    head = call.func.id
    if head in ("get", "call"):
        return g.constants[int((call.args[0].args[0] if head == "get" else call.args[0]).id[1:])]
    (builtin,) = [spec.name for spec in BUILTINS.values() if spec.fn is g.constants[int(head[1:])]]
    return builtin


def test_the_pack_tests_no_literal_kind_and_no_list_result(pack):
    """In the shipped pack's code, no guard clause tests a
    constant: a literal's kind is known when the rule compiles.  A for or
    exists over a call of a built-in declared to return a list iterates
    its result as it is, with no list test before an index lookup; only
    the results of built-ins that may give any value are tested."""
    generated = [g for _, g in gen.emit_pack(pack, BUILTINS).walks]
    tested = as_is = isinstances = 0
    for g in generated:
        for _, _, source in g.units:
            assert not re.search(r"isinstance\(c\d+,|\bc\d+ is not MISSING", source), source
            isinstances += source.count("isinstance(")
            tree = pyast.parse(source)
            loops = [n.iter for n in pyast.walk(tree) if isinstance(n, pyast.For)]
            lookups = [n.test for n in pyast.walk(tree) if isinstance(n, pyast.IfExp)
                       and isinstance(n.body, pyast.Call) and n.body.func.id == "lookup"]
            for container in loops + lookups:
                wrapped = not isinstance(container, pyast.Name)
                items = (container.values[1] if isinstance(container, pyast.BoolOp)
                         else container.body if wrapped else container)
                assert items.id.startswith("t")  # a call's value, not a variable's
                result = BUILTINS[producer(g, tree, items.id)].result
                assert (result != builtins_mod.LIST) == wrapped, source
                tested += wrapped
                as_is += not wrapped
    assert as_is > 20 and tested == 3  # getArg twice and join
    # the pack holds 94, 7 of them in r7's check of a compound name
    # (indexOf and substring of setterName, isEmpty twice, and getName in
    # the getter exists's two index functions and its scan); 3 to spare
    assert isinstances <= 97


# name: a rule's statement in the loop over beans, and how the generated
# line of each call in it runs the call: "checked" through Registry.call
# alone, "guarded" the body where its guard holds, "bare" the body
KNOWN_KINDS = {
    # a literal of the wrong kind
    "literal-kind": ("String v = getAttr(b, 5);", ["checked"]),
    # MISSING returns before the literal's kind is checked
    "missing-first": ('assert (NOT isEmpty(getAttr(getAttr(b, "absent"), 5))) { msg("m %s", b); }',
                      ["guarded", "checked", "guarded"]),
    # every check of locateClassFQN and getName settled
    "settled": ('assert (isEmpty(getName(locateClassFQN("p.A")))) { msg("n %s", b); }',
                ["bare", "bare", "guarded"]),
}


def call_shapes(g, source, line):
    """How each generated line of the calls at a rule line runs its call."""
    (table,) = {n.args[1].id for n in pyast.walk(pyast.parse(source))
                if isinstance(n, pyast.Call) and getattr(n.func, "id", None) == "placed"}
    lines = source.splitlines()
    texts = [lines[i - 1].split(" = ", 1)[1]
             for i, where in sorted(g.constants[int(table[1:])].items()) if where[1] == line]
    return ["checked" if text.startswith("call(") else "guarded" if " if " in text else "bare"
            for text in texts]


@pytest.mark.parametrize("name", KNOWN_KINDS)
def test_calls_of_known_kinds_run_as_the_closures_ran_them(tmp_path, name):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text("package p;\npublic class A { }\n")
    (tmp_path / "ctx.xml").write_text(CTX_XML)
    stmt, shapes = KNOWN_KINDS[name]
    rule = parse_rule(f"Rule {name} {{\n{BEANS}    {stmt}\n  }}\n}}\n}}\n")
    g = walk_of(rule)
    (_, _, source), = g.units
    assert call_shapes(g, source, 4) == shapes, source
    reports, errors, _, _ = assert_same_checks([rule], build_model(tmp_path))
    if name == "literal-kind":
        assert [error[2:] for error in errors] == [
            ("'getAttr' argument 2 must be text, got int", 4, 16)]
    else:
        assert not errors and len(reports) == 4
