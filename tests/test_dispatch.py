"""Registry.call's checked entries against the frozen generic dispatch.

Every built-in, and a record built in the test, is called with argument
lists of length 0 to 4 drawn from MISSING, text, integers, bools, lists
and each model item kind; the entry must return what
tests/reference_registry.py returns, or raise the same exception class
with the same message.  A built-in declared to return a kind returns a
value of that kind on every call that does not raise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_registry import reference_call, reference_join, reference_upper_case

from mecheck import builtins as builtins_mod
from mecheck.builtins import BUILTINS, Builtin, PreconditionError, Registry
from mecheck.model.items import CallSite
from mecheck.model.project import build_model
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.interpreter import Interpreter
from mecheck.runtime.values import MISSING

PROJECT = {
    "src/main/resources/beans.xml": """\
<beans>
  <bean id="svc" class="com.x.Svc" init-method="start" destroy-method="stop">
    <constructor-arg index="0" type="String" name="name"/>
    <property name="name" value="v"/>
  </bean>
  <import resource="classpath:beans.xml"/>
</beans>
""",
    "src/main/java/com/x/Svc.java": """\
package com.x;

@RunWith(Suite.class)
@Component(value = "svc", lazy = "true")
public class Svc extends Base implements Runnable {
    @Autowired
    private String name;

    public Svc(String name, int port) { }

    @Test
    public void start() { ctx.getBean("svc", 1); }

    public java.util.List<String> items() { return null; }

    public String[] names() { return null; }
}
""",
    "src/main/java/com/x/Base.java": "package com.x;\n\npublic class Base {\n    void stop() { }\n}\n",
    "src/main/java/com/y/Svc.java": "package com.y;\n\npublic class Svc { }\n",
}

TEXTS = [
    "", "x", "bean", "<bean>", "*", "*method", "b?an", "class", "id", "name", "index", "svc",
    "com.x.Svc", "com.x.Base", "Svc", "Base", "java.lang.String", "String", "int", "class",
    "method", "field", "RunWith", "Component", "org.junit.Component", "value", "lazy",
    "beans.xml", "classpath:beans.xml", "../beans.xml", "getBean", "start", "set", "0", "1",
    "-1", "+2", "1_0", " 1", "2147483648", "٣", "abc", "été", "straße",
]
SCALARS = [MISSING, True, False, 0, 1, -1, 2, 5, 2**40, 1.5, [], ["a", "b"], [MISSING]]


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("dispatch")
    for rel, text in PROJECT.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return build_model(root)


def model_items(model):
    xml = model.xml_files[0]
    svc = model.class_by_fqn["com.x.Svc"]
    members = svc.members()
    items = [xml, xml.root, *xml.root.children, *xml.root.children[0].children,
             *model.classes, *members.methods, *members.fields, *members.constructors,
             *members.call_sites]
    kinds = {type(item) for item in items}
    assert CallSite in kinds and len(kinds) == 7
    return items


def probe_fn(registry, model, args):
    """The test-built record's body: echoes, or raises what bodies raise."""
    if isinstance(args[0], (int, float)):
        raise PreconditionError("cannot answer")
    if isinstance(args[0], list):
        raise builtins_mod.BuiltinTypeError(0, "no list", "list")
    return list(args)


PROBE = Builtin("probe", probe_fn, range(1, 3))


def make_registry():
    registry = Registry()
    registry.builtins = {**BUILTINS, "probe": PROBE}
    return registry


def outcome(call, registry, name, args, model):
    try:
        return "ok", call(registry, name, list(args), model)
    except Exception as exc:  # the outcomes compared include every exception
        return "raised", type(exc), str(exc)


def same(a, b):
    """Equal values of the same type; items compare by identity."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@st.composite
def argument_lists(draw, spec, pool):
    """0 to 4 arguments, half the time as many as the record takes.  A
    position where MISSING short-circuits gets it one time in eight, and
    a position whose kind the record checks mostly gets a value of that
    kind, so that calls reach the body."""
    takes = [n for n in range(5) if n in spec.arity]
    args = []
    for i in range(draw(st.one_of(st.integers(0, 4), st.sampled_from(takes)))):
        fitting = [v for v in pool if i < len(spec.checks) and isinstance(v, spec.checks[i][1])]
        pick = draw(st.integers(0, 7))
        if pick == 0 and i in spec.missing:
            args.append(MISSING)
        elif pick < 6 and fitting:
            args.append(draw(st.sampled_from(fitting)))
        else:
            args.append(draw(st.sampled_from(pool)))
    return args


@pytest.mark.parametrize("name", sorted([*BUILTINS, "probe"]))
def test_checked_entry_matches_the_generic_dispatch(model, name):
    registry = make_registry()
    spec = registry.builtins[name]
    pool = [*TEXTS, *SCALARS, *model_items(model)]

    @settings(max_examples=60, deadline=None)
    @given(argument_lists(spec, pool))
    def check(args):
        got = outcome(Registry.call, registry, name, args, model)
        want = outcome(reference_call, registry, name, args, model)
        assert got[0] == want[0], (got, want)
        if got[0] == "ok":
            assert same(got[1], want[1]), (got, want)
            # the declared kind; for BOOL, a Python bool
            assert isinstance(got[1], spec.result[0]), got
            assert got[1] is not spec.on_missing or not isinstance(got[1], list)
        else:
            assert got[1:] == want[1:]

    check()


def test_unknown_names_fail_alike(model):
    registry = make_registry()
    for args in ([], ["x"]):
        got = outcome(Registry.call, registry, "noSuchThing", args, model)
        assert got == outcome(reference_call, registry, "noSuchThing", args, model)
        assert got[1] is builtins_mod.UnknownBuiltinError


def test_every_builtin_declares_its_result_kind():
    kinds = {builtins_mod.BOOL, builtins_mod.INTEGER, builtins_mod.TEXT_OR_MISSING,
             builtins_mod.LIST, builtins_mod.CLASS, builtins_mod.ANY}
    assert all(spec.result in kinds for spec in BUILTINS.values())
    assert PROBE.result == builtins_mod.ANY
    bools = {name for name, spec in BUILTINS.items() if spec.result == builtins_mod.BOOL}
    assert {"hasAttr", "classExists", "elementExists", "isEmpty", "pathExists"} <= bools
    for name in bools:
        on_missing = BUILTINS[name].on_missing
        assert BUILTINS[name].missing and (on_missing is True or on_missing is False)


def test_a_rebuilt_record_dispatches_to_its_own_fn(model):
    get_attr = BUILTINS["getAttr"]
    calls = []

    def counting(reg, model, args):
        calls.append(list(args))
        return "counted"

    fields = {name: getattr(get_attr, name) for name in type(get_attr).__slots__}
    rebuilt = Builtin(**{**fields, "fn": counting})
    registry = Registry()
    registry.builtins = {**BUILTINS, "getAttr": rebuilt}
    element = model.xml_files[0].root.children[0]
    assert registry.call("getAttr", [element, "id"], model) == "counted"
    assert registry.call("getAttr", [MISSING, "id"], model) is MISSING
    assert calls == [[element, "id"]]
    assert Registry().call("getAttr", [element, "id"], model) == "svc"
    assert rebuilt != get_attr and rebuilt.entry is not get_attr.entry


def test_a_record_declares_at_most_two_missing_positions_and_three_kinds():
    with pytest.raises(ValueError):
        Builtin("wide", probe_fn, range(3, 4), missing=(0, 1, 2))
    with pytest.raises(ValueError):
        Builtin("wide", probe_fn, range(4, 5), checks=tuple((i, str, "text") for i in range(4)))


@pytest.mark.parametrize("cond, checked", [
    ('hasAttr(e, "id")', False), ('(classExists("a.B"))', False),
    ('getAttr(e, "id")', True), ('isEmpty("")', False), ('noSuchThing(e)', True),
])
def test_only_conditions_of_unknown_or_non_bool_results_are_truth_checked(model, cond, checked):
    rule = parse_rule(f'Rule c {{\n  for (<bean> e in getXMLs()) {{\n'
                      f'    assert ({cond}) {{ msg("m"); }}\n  }}\n}}\n')
    interp = Interpreter(model)
    (loop,) = rule.body
    (stmt,) = loop.body
    compiled = interp._compile_cond(stmt.cond, [{"e": 0}])
    assert (compiled.__name__ == "cond") == checked


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_upper_case_matches_its_old_body(s):
    got = Registry().call("upperCase", [s], None)
    assert type(got) is str
    assert got == reference_upper_case(s)


JOIN_VALUES = st.one_of(
    st.text(max_size=4), st.lists(st.text(max_size=2), max_size=3),
    st.sampled_from([MISSING, True, 0, 1.5]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(JOIN_VALUES, min_size=2, max_size=5))
def test_join_matches_its_old_body(args):
    def run(join):
        try:
            return "ok", join(list(args))
        except builtins_mod.BuiltinTypeError as exc:
            return "raised", str(exc)

    got = run(lambda a: Registry._join(None, None, a))
    want = run(reference_join)
    assert got[0] == want[0]
    assert same(got[1], want[1]) if got[0] == "ok" else got == want
