import types

import pytest
import reference_interpreter as ref
from body_counts import BodyCounter

from mecheck.builtins import Registry
from mecheck.model.project import build_model
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import BugReport, Interpreter, RuntimeRuleError

PROJECT = {
    "ctx.xml": """\
<beans>
  <bean id="one" class="com.x.Svc"/>
  <bean id="two" class="com.x.Gone" marker="yes"/>
</beans>
""",
    "src/com/x/Svc.java": """\
package com.x;

public class Svc {
    public void setName(String name) { }
}
""",
    "src/com/x/Probe.java": """\
package com.x;

public class Probe {
    public void m0() { }
    public void m1() { }
    public void m2() { }
    public void m3() { }
    public void m4() { }
    public void m5() { }
}
""",
}


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("interp-proj")
    for rel, content in PROJECT.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return build_model(root)


def run(model, source, cache=None, sink=None, engine=Interpreter):
    interp = engine(model, cache=cache)
    reports = interp.run_rule(parse_rule(source), sink=sink)
    return reports, interp


def test_decl_then_assert_with_rendered_message(model):
    src = """\
Rule decl-use {
  String who = "world";
  assert (isEmpty(who)) { msg("hello %s and %s", who, "again"); }
}
"""
    reports, _ = run(model, src)
    assert len(reports) == 1
    r = reports[0]
    assert r.rule_name == "decl-use"
    assert r.message == "hello world and again"


def test_passing_assert_reports_nothing(model):
    src = 'Rule quiet { assert (isEmpty("")) { msg("never"); } }'
    reports, _ = run(model, src)
    assert reports == []


def test_report_location_from_first_located_arg(model):
    src = """\
Rule locate {
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "bean")) {
      assert (hasAttr(b, "nope")) { msg("plain %s then %s", "text", b); }
    }
  }
}
"""
    reports, _ = run(model, src)
    assert len(reports) == 2
    assert reports[0].file_path == "ctx.xml"
    assert reports[0].line == 2
    assert reports[1].line == 3
    assert reports[0].message == 'plain text then <bean id="one">'


def test_report_without_locatable_args(model):
    src = 'Rule bare { assert (isEmpty("x")) { msg("fixed note"); } }'
    reports, _ = run(model, src)
    assert reports == [
        BugReport(rule_name="bare", message="fixed note", file_path="", line=0)
    ]


def test_missing_renders_in_message(model):
    src = """\
Rule shows-missing {
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "beans")) {
      assert (isEmpty("x")) { msg("id is %s", getAttr(b, "id")); }
    }
  }
}
"""
    reports, _ = run(model, src)
    assert len(reports) == 1
    assert reports[0].message == "id is <missing>"


def test_for_iterates_elements_in_document_order(model):
    src = """\
Rule each-bean {
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "bean")) {
      assert (isEmpty("x")) { msg("%s", getAttr(b, "id")); }
    }
  }
}
"""
    reports, _ = run(model, src)
    assert [r.message for r in reports] == ["one", "two"]


def test_for_over_single_value_runs_once(model):
    src = """\
Rule single {
  for (String s in "only") {
    assert (isEmpty("x")) { msg("%s", s); }
  }
}
"""
    reports, _ = run(model, src)
    assert [r.message for r in reports] == ["only"]


def test_for_over_missing_runs_never(model):
    src = """\
Rule none {
  for (file f in getXMLs()) {
    for (<beans> root in getElms(f, "beans")) {
      for (String s in getAttr(root, "nope")) {
        assert (isEmpty("x")) { msg("%s", s); }
      }
    }
  }
}
"""
    reports, _ = run(model, src)
    assert reports == []


def test_for_frame_cleared_between_iterations(model):
    # iteration 1 (no marker) declares probe; iteration 2 (marker) reads
    # it before its own declaration, which must fail if clearing works
    src = """\
Rule stale-read {
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "bean")) {
      if (hasAttr(b, "marker")) {
        String v = probe;
      }
      String probe = getAttr(b, "id");
    }
  }
}
"""
    with pytest.raises(RuntimeRuleError) as err:
        run(model, src)
    assert "probe" in str(err.value)
    assert err.value.rule_name == "stale-read"


def test_loop_variable_shadows_outer_binding(model):
    src = """\
Rule shadow {
  String x = "outer";
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "bean")) {
      for (String x in getAttr(b, "id")) {
        assert (isEmpty("q")) { msg("inner %s", x); }
      }
    }
  }
  assert (isEmpty("q")) { msg("after %s", x); }
}
"""
    reports, _ = run(model, src)
    assert [r.message for r in reports] == ["inner one", "inner two", "after outer"]


def test_if_body_bindings_do_not_escape(model):
    src = """\
Rule if-scope {
  if (isEmpty("")) {
    String y = "in";
  }
  assert (isEmpty(y)) { msg("%s", y); }
}
"""
    with pytest.raises(RuntimeRuleError) as err:
        run(model, src)
    assert "'y'" in str(err.value)


def test_false_if_skips_body(model):
    src = """\
Rule skip {
  if (isEmpty("nonempty")) {
    assert (isEmpty("x")) { msg("unreachable"); }
  }
}
"""
    reports, _ = run(model, src)
    assert reports == []


def test_exists_counts_predicate_evals(model):
    cases = [("m0", 1, 1), ("m3", 4, 1), ("zz", 6, 0)]
    for target, expected_evals, expected_reports in cases:
        src = f"""\
Rule find-method {{
  class c = locateClassFQN("com.x.Probe");
  if (exists (method m in getMethods(c)) (getName(m) == "{target}")) {{
    assert (isEmpty("x")) {{ msg("found {target}"); }}
  }}
}}
"""
        reports, interp = run(model, src)
        assert interp.stats.exists_predicate_evals == expected_evals, target
        assert len(reports) == expected_reports, target


def test_exists_variable_not_visible_outside(model):
    src = """\
Rule exists-scope {
  class c = locateClassFQN("com.x.Probe");
  if (exists (method m in getMethods(c)) (getName(m) == "m1")) {
    assert (isEmpty("x")) { msg("%s", getName(m)); }
  }
}
"""
    with pytest.raises(RuntimeRuleError) as err:
        run(model, src)
    assert "'m'" in str(err.value)


def test_and_short_circuit_guards_preconditions(model):
    src = """\
Rule guarded {
  if (classExists("ghost.X") AND isEmpty(getName(locateClassFQN("ghost.X")))) {
    assert (isEmpty("x")) { msg("unreachable"); }
  }
}
"""
    reports, _ = run(model, src)
    assert reports == []


def test_or_short_circuit_skips_right(model):
    src = """\
Rule or-guard {
  if (classExists("com.x.Svc") OR isEmpty(getName(locateClassFQN("ghost.X")))) {
    assert (isEmpty("x")) { msg("left won"); }
  }
}
"""
    reports, _ = run(model, src)
    assert [r.message for r in reports] == ["left won"]


def test_unguarded_precondition_becomes_rule_error(model):
    src = """\
Rule boom {
  class c = locateClassFQN("ghost.X");
  assert (isEmpty("x")) { msg("%s", getFQN(c)); }
}
"""
    with pytest.raises(RuntimeRuleError) as err:
        run(model, src)
    assert err.value.rule_name == "boom"
    assert "ghost.X" in err.value.cause
    assert err.value.line == 2


def test_non_boolean_condition_is_rule_error(model):
    src = """\
Rule bad-cond {
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "bean")) {
      if (getAttr(b, "id")) {
        assert (isEmpty("x")) { msg("no"); }
      }
    }
  }
}
"""
    with pytest.raises(RuntimeRuleError) as err:
        run(model, src)
    assert "boolean" in err.value.cause


def test_unbound_variable_error_position(model):
    src = 'Rule pos {\n  assert (isEmpty(ghost)) { msg("x"); }\n}'
    with pytest.raises(RuntimeRuleError) as err:
        run(model, src)
    assert err.value.line == 2
    assert err.value.column == 19


def test_eq_compares_values_not_identity(model):
    src = """\
Rule eq-check {
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "bean")) {
      if (getAttr(b, "id") == "two") {
        assert (isEmpty("x")) { msg("matched %s", b); }
      }
    }
  }
}
"""
    reports, _ = run(model, src)
    assert [r.message for r in reports] == ['matched <bean id="two">']


def test_not_operator(model):
    src = """\
Rule negate {
  assert (NOT isEmpty("full")) { msg("never fires"); }
  assert (NOT isEmpty("")) { msg("fires"); }
}
"""
    reports, _ = run(model, src)
    assert [r.message for r in reports] == ["fires"]


def test_shared_sink_keeps_emission_order(model):
    a = 'Rule first { assert (isEmpty("x")) { msg("a"); } }'
    b = 'Rule second { assert (isEmpty("x")) { msg("b"); } assert (isEmpty("x")) { msg("c"); } }'
    interp = Interpreter(model)
    sink = []
    interp.run_rule(parse_rule(a), sink=sink)
    interp.run_rule(parse_rule(b), sink=sink)
    assert [(r.rule_name, r.message) for r in sink] == [
        ("first", "a"), ("second", "b"), ("second", "c")]


def test_separate_sinks_hold_only_their_own_reports(model):
    a = 'Rule first { assert (isEmpty("x")) { msg("a"); } }'
    b = 'Rule second { assert (isEmpty("x")) { msg("b"); } }'
    interp = Interpreter(model)
    interp.run_rule(parse_rule(a))
    reports = interp.run_rule(parse_rule(b))
    assert [(r.rule_name, r.message) for r in reports] == [("second", "b")]


def test_cache_does_not_change_results(model):
    src = """\
Rule cached {
  for (file f in getXMLs()) {
    for (<bean> b in getElms(f, "bean")) {
      assert (classExists(getAttr(b, "class"))) { msg("no class %s for %s", getAttr(b, "class"), b); }
    }
  }
}
"""
    # the reference with no cache is the cache-free result
    def rows(reports):
        return [(r.rule_name, r.message, r.file_path, r.line) for r in reports]

    plain = rows(run(model, src, cache=None, engine=ref.Interpreter)[0])
    cache = QueryCache()
    cached_first, _ = run(model, src, cache=cache)
    cached_second, _ = run(model, src, cache=cache)
    assert plain == rows(cached_first) == rows(cached_second)
    assert [r.message for r in cached_first] == ['no class com.x.Gone for <bean id="two">']
    stats = cache.stats()
    assert stats["hits"] > 0
    assert stats["misses"] > 0


def test_cache_skips_uncacheable_builtins(model):
    cache = QueryCache()
    src = 'Rule strings-only { assert (isEmpty(join("a", "b"))) { msg("joined"); } }'
    reports, _ = run(model, src, cache=cache)
    assert [r.message for r in reports] == ["joined"]
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_builtin_call_stat(model):
    src = 'Rule counted { assert (isEmpty(join("a", "b"))) { msg("x"); } }'
    _, interp = run(model, src)
    assert interp.stats.builtin_calls == 2  # join and isEmpty


def test_rule_error_leaves_prior_reports_in_sink(model):
    src = """\
Rule partial {
  assert (isEmpty("x")) { msg("kept"); }
  String c = getFQN(locateClassFQN("ghost.X"));
}
"""
    interp = Interpreter(model)
    sink = []
    with pytest.raises(RuntimeRuleError):
        interp.run_rule(parse_rule(src), sink=sink)
    assert [r.message for r in sink] == ["kept"]


def test_literal_and_variable_arguments_reach_the_registry_in_fresh_lists(model):
    src = """\
Rule shapes {
  for (file xml in getXMLs()) {
    for (<bean> bean in getElms(xml, "<bean>")) {
      String id = getAttr(bean, ("id"));
      String first = substring(id, 0, 1);
      assert (classExists("com.x.Svc") AND (endsWith(id, first) OR startsWith("two", "tw"))) {
        msg("%s", upperCase(id));
      }
    }
  }
}
"""
    # each call reaches its built-in's body: straight from the rule code when
    # its arguments pass the guard, as all do here, or through Registry.call,
    # as getElms, a cached built-in, does on a miss of the interpreter's own
    # query cache
    registry, counter = Registry(), BodyCounter()
    registry.builtins, registry.call = counter.table, types.MethodType(counter.call, registry)
    interp = Interpreter(model, registry)
    seen = counter.seen
    assert interp.run_rule(parse_rule(src)) == []
    assert sum(counter.direct.values()) == len(seen) - 1 and counter.registry == {"getElms": 1}
    xml = model.xml_files[0]
    one, two = xml.root.children
    assert seen == [
        ("getXMLs", []),
        ("getElms", [xml, "<bean>"]),
        ("getAttr", [one, "id"]), ("substring", ["one", 0, 1]), ("classExists", ["com.x.Svc"]),
        ("endsWith", ["one", "o"]), ("startsWith", ["two", "tw"]),
        ("getAttr", [two, "id"]), ("substring", ["two", 0, 1]), ("classExists", ["com.x.Svc"]),
        ("endsWith", ["two", "t"]), ("startsWith", ["two", "tw"]),
    ]
    assert len({id(args) for _, args in seen}) == len(seen)
    assert interp.stats.builtin_calls == len(seen)


@pytest.mark.parametrize("args", ['nobody', 'nobody, "id"', 'xml, nobody', '"<bean>", nobody',
                                  'xml, "a", nobody'])
def test_an_unbound_argument_fails_at_its_own_position(model, args):
    src = f'Rule unbound {{\n  for (file xml in getXMLs()) {{\n    String v = getAttr({args});\n  }}\n}}\n'
    column = src.splitlines()[2].index("nobody") + 1
    with pytest.raises(RuntimeRuleError) as exc:
        run(model, src)
    assert (exc.value.cause, exc.value.line, exc.value.column) == (
        "variable 'nobody' is not bound", 3, column)


@pytest.mark.parametrize("call, cause", [
    # (slot, value): a precondition error of a cached built-in
    ('getAnnotated(s, "package")',
     "'getAnnotated': kind must be class, method, or field, got 'package'"),
    # (slot, slot): a kind error of a cached built-in
    ("getElms(s, s)", "'getElms' argument 1 must be an XML file or element, got text"),
    # (slot, value, value): a kind error of an uncached built-in
    ("substring(xml, 0, 1)", "'substring' argument 1 must be text, got file"),
    # an argument that is a call: the generic shape
    ("locateClassSN(upperCase(s))", "'locateClassSN': simple name COM matches 0 classes"),
])
# the reference with no cache, then the interpreter
@pytest.mark.parametrize("engine", [ref.Interpreter, Interpreter], ids=["uncached", "cached"])
def test_a_failing_call_of_each_folded_shape_fails_at_the_call(model, call, cause, engine):
    src = ('Rule shape {\n  for (file xml in getXMLs()) {\n    String s = "com";\n'
           f'    String v = {call};\n  }}\n}}\n')
    column = src.splitlines()[3].index(call) + 1
    with pytest.raises((RuntimeRuleError, ref.RuntimeRuleError)) as exc:
        run(model, src, engine=engine)
    assert (exc.value.cause, exc.value.line, exc.value.column) == (cause, 4, column)
