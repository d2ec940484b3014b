"""A built-in's body called straight from rule code, against Registry.call.

Where a call of a known built-in has a count in its arity and does not go
through the query cache, the generated code runs the body itself when the
arguments pass the built-in's guard (its declared kinds, and no MISSING
at a MISSING position no kind checks), and Registry.call otherwise.  A
call of a cached built-in goes through the query cache, and on a miss
through Registry.call.  For every built-in, Hypothesis draws argument
lists of a valid count from model items of each kind, text, located
text, MISSING, bools, integers and lists; a rule calling it must
give the value Registry.call gives, or fail with the text of the error
Registry.call raises, and must reach Registry.call exactly when the guard
fails, or on every call of a cached built-in, as each example runs with a
fresh query cache.  Rules whose call raises in the body on the direct
path must fail as tests/reference_interpreter.py fails them: text, line
and column, alone and in a shared walk.
"""

import types

import pytest
from body_counts import BodyCounter
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dispatch import PROJECT, SCALARS, TEXTS, model_items, outcome, same
from test_generated_rules import assert_same_checks

from mecheck.builtins import BUILTINS, Builtin, Registry
from mecheck.model.project import build_model
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import Interpreter, RuntimeRuleError, emit_pack
from mecheck.runtime.values import MISSING, LocatedText


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("direct")
    for rel, text in PROJECT.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return build_model(root)


LOCATED = [LocatedText(text, "src/main/java/com/x/Svc.java", 12)
           for text in ("svc", "com.x.Svc", "name", "0", "<bean>")]


def passes_guard(spec: Builtin, args: list) -> bool:
    """What the checked entry finds before it runs the body: every kind
    holds and no MISSING position holds MISSING."""
    return (all(isinstance(args[i], types_) for i, types_, _ in spec.checks)
            and all(args[i] is not MISSING for i in spec.missing))


@st.composite
def valid_arguments(draw, spec, pool):
    """An argument list whose count is in spec's arity (at most 4), with
    values of the declared kinds and MISSING drawn often."""
    count = draw(st.integers(spec.arity.start, min(spec.arity.stop - 1, 4)))
    args = []
    for i in range(count):
        fitting = [v for v in pool if i < len(spec.checks) and isinstance(v, spec.checks[i][1])]
        pick = draw(st.integers(0, 7))
        if pick == 0:
            args.append(MISSING)
        elif pick < 6 and fitting:
            args.append(draw(st.sampled_from(fitting)))
        else:
            args.append(draw(st.sampled_from(pool)))
    return args


def calling_rule(name: str, count: int):
    """A rule that passes pick(0), ..., pick(count - 1) to `name` and keeps
    the value: the generated code calls `name` on the drawn arguments."""
    args = ", ".join(f"pick({i})" for i in range(count))
    return parse_rule(f"Rule direct {{\n  String v = keep({name}({args}));\n}}\n")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_direct_form_matches_registry_call(model, name):
    spec = BUILTINS[name]
    pool = [*TEXTS, *LOCATED, *SCALARS, *model_items(model), [model.xml_files[0]]]
    drawn, kept = [], []
    counter = BodyCounter()
    registry = Registry()
    registry.builtins = {
        **counter.table,
        "pick": Builtin("pick", lambda reg, m, args: drawn[args[0]], range(1, 2)),
        "keep": Builtin("keep", lambda reg, m, args: kept.append(args[0]), range(1, 2)),
    }
    registry.call = types.MethodType(counter.call, registry)
    rules = {}

    @settings(max_examples=60, deadline=None)
    @given(valid_arguments(spec, pool))
    def check(args):
        want = outcome(Registry.call, Registry(), name, args, model)
        count = len(args)
        if count not in rules:
            rules[count] = calling_rule(name, count)
            ((_, walk),) = emit_pack([rules[count]], registry.builtins).walks
            (source,) = [s for _, _, s in walk.units]
            # each pick and the keep, and the call unless the query cache takes it
            assert source.count("(registry, model, [") == count + 1 + (not spec.cached)
        drawn[:], kept[:] = args, []
        counter.registry.clear()
        try:
            # a fresh cache, so a cached call misses and reaches Registry.call
            Interpreter(model, registry, QueryCache()).run_rule(rules[count])
            got = ("ok", kept[0])
        except RuntimeRuleError as exc:
            assert (exc.line, exc.column) == (2, 19)
            got = ("raised", exc.cause)
        assert counter.registry[name] == (1 if spec.cached or not passes_guard(spec, args) else 0)
        if want[0] == "ok":
            assert got[0] == "ok" and same(got[1], want[1]), (got, want)
        else:
            assert got == ("raised", want[2]), (got, want)

    check()


PROJECT_JAVA = "package p;\n\npublic class A {\n    public A(String s) { }\n}\n"
PROJECT_XML = '<beans>\n  <bean id="a" class="p.A"/>\n</beans>\n'

# Each call passes its built-in's guard and raises in the body.
RAISING_IN_THE_BODY = {
    "substring": 'String y = substring(getName(f), "a");',
    "locateClassFQN": 'String c = locateClassFQN("no.Such");',
    "join": 'String j = join("a", getXMLs());',
    "indexInBound": ('for (method k in getConstructors(locateClassFQN("p.A"))) {\n'
                     '      String b = indexInBound(k, getXMLs());\n    }'),
}


def raising_source(name: str) -> str:
    return (f"Rule {name}-fails {{\n  for (file f in getXMLs()) {{\n"
            f"    {RAISING_IN_THE_BODY[name]}\n  }}\n}}\n")


@pytest.fixture(scope="module")
def project_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("direct-errors")
    (root / "src/main/java/p").mkdir(parents=True)
    (root / "src/main/java/p/A.java").write_text(PROJECT_JAVA)
    (root / "beans.xml").write_text(PROJECT_XML)
    return build_model(root)


@pytest.mark.parametrize("name", sorted(RAISING_IN_THE_BODY))
def test_an_error_raised_in_a_direct_body_is_the_references(project_model, name):
    text = raising_source(name)
    rule = parse_rule(text)
    source = "".join(s for _, _, s in emit_pack([rule], BUILTINS).walks[0][1].units)
    assert "(registry, model, [" in source
    _, errors, _, _ = assert_same_checks([rule], project_model)
    (error,) = errors
    assert error[2].split("'")[1] == name  # the cause names the built-in
    (line,) = [i for i, t in enumerate(text.splitlines(), 1) if f"{name}(" in t]
    assert error[3:] == (line, text.splitlines()[line - 1].index(f"{name}(") + 1)


def test_errors_raised_in_direct_bodies_of_a_shared_walk_are_the_references(project_model):
    rules = [parse_rule(raising_source(name)) for name in RAISING_IN_THE_BODY]
    _, errors, _, _ = assert_same_checks(rules, project_model)
    assert [error[2].split("'")[1] for error in errors] == list(RAISING_IN_THE_BODY)
