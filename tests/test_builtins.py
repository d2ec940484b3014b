import random

import pytest

from mecheck.builtins import (
    BUILTINS,
    Builtin,
    BuiltinArityError,
    BuiltinTypeError,
    LibraryPatternSet,
    PatternFileError,
    PreconditionError,
    Registry,
    UnknownBuiltinError,
    resolve_resource_path,
)
from mecheck.model.project import build_model
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import Interpreter
from mecheck.runtime.values import (
    MISSING,
    LocatedText,
    display,
    index_key,
    kind_name,
    location_of,
    value_eq,
)

APP_XML = """\
<beans>
  <bean id="greeter" class="com.acme.Greeter" init-method="init" destroy-method="close">
    <constructor-arg name="message" index="0" type="String" value="Hi"/>
    <property name="prefix" value="Hello"/>
  </bean>
  <bean id="plain"/>
</beans>
"""

PROJECT = {
    "src/main/resources/app.xml": APP_XML,
    "src/main/resources/dup.xml": "<r/>",
    "conf/dup.xml": "<r/>",
    "conf/unique-name.xml": "<r/>",
    "WEB-INF/web.xml": "<web-app/>",
    "root-ctx.xml": "<beans/>",
    "src/main/java/com/acme/Greeter.java": """\
package com.acme;

public class Greeter {
    private final String message;
    private String prefix;

    public Greeter(String message) {
        this.message = message;
    }

    public void setPrefix(String prefix) {
        this.prefix = prefix;
    }

    public void init() { }

    public void close() { }
}
""",
    "src/main/java/com/acme/Base.java": "package com.acme;\n\npublic class Base {\n    public void baseMethod() { }\n}\n",
    "src/main/java/com/acme/Marker.java": "package com.acme;\n\npublic interface Marker {\n    void markerMethod();\n}\n",
    "src/main/java/com/acme/Mid.java": """\
package com.acme;

public class Mid extends Base implements Marker {
    public void midMethod() { }

    public void markerMethod() { }
}
""",
    "src/main/java/com/acme/Leaf.java": "package com.acme;\n\npublic class Leaf extends Mid {\n    public void leafMethod() { }\n}\n",
    "src/main/java/com/acme/AbstractHolder.java": "package com.acme;\n\npublic class AbstractHolder<T> {\n    public T held() { return null; }\n}\n",
    "src/main/java/com/acme/Box.java": "package com.acme;\n\npublic class Box extends AbstractHolder<String> {\n}\n",
    "src/main/java/com/acme/Lone.java": "package com.acme;\n\npublic class Lone extends Unknown {\n}\n",
    "src/main/java/p2/Dup.java": "package p2;\n\npublic class Dup { }\n",
    "src/main/java/p3/Dup.java": "package p3;\n\npublic class Dup { }\n",
    "src/test/java/com/acme/SuiteHolder.java": """\
package com.acme;

import org.junit.runner.RunWith;
import org.junit.runners.Suite;

@RunWith(Suite.class)
@Suite.SuiteClasses({Leaf.class})
public class SuiteHolder {
}
""",
    "src/test/java/com/acme/ParamHolder.java": """\
package com.acme;

import java.util.Collection;
import org.junit.Test;
import org.junit.runners.Parameterized.Parameters;

public class ParamHolder {
    @Deprecated
    private int old;

    @Parameters
    public static Collection<Object[]> data() {
        return null;
    }

    @Test
    public void checks() { }

    public int[][] grid() { return null; }

    public String label() { return "x"; }
}
""",
    "src/main/java/com/acme/Main.java": """\
package com.acme;

public class Main {
    public static void main(String[] args) {
        Object ctx = new ClassPathXmlApplicationContext("app.xml");
        Object a = ctx.getBean("one");
        Object b = ctx.getBean(Leaf.class);
        String dyn = args[0];
        Object c = ctx.getBean(dyn);
        Object d = ctx.getBean("two", Greeter.class);
    }
}
""",
}


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("builtin-proj")
    for rel, content in PROJECT.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return build_model(root)


@pytest.fixture(scope="module")
def reg():
    return Registry()


@pytest.fixture(scope="module")
def call(model, reg):
    def invoke(name, *args):
        return reg.call(name, list(args), model)

    return invoke


@pytest.fixture(scope="module")
def app(model):
    return [x for x in model.xml_files if x.path.endswith("app.xml")][0]


# -- registry shape ------------------------------------------------------------


def test_registry_has_43_builtins(reg):
    assert len(BUILTINS) == 43
    assert reg.builtins is BUILTINS
    assert all(name == spec.name for name, spec in BUILTINS.items())


def test_cacheable_set():
    # every built-in whose cost grows with the model or touches the disk;
    # lists copied off one item or the model are called directly, except
    # where a call is an exists container (see the next test)
    lists = {"getElms", "getFamily", "getArg", "getAnnotated"}
    model_wide = {"elementExists", "isLibraryClass", "pathExists", "callExists",
                  "locateClassSN", "isUniqueSN"}
    assert {name for name, spec in BUILTINS.items() if spec.cached} == lists | model_wide


def test_exists_container_call_is_answered_from_the_cache(model):
    """getMethods is not a cached built-in, but an exists keeps its index
    on the container object, so a call that is an exists container goes
    through the query cache: its second evaluation is a hit.  The same
    call as a for container reaches the registry each time."""
    assert not BUILTINS["getMethods"].cached
    rule = parse_rule(
        "Rule t {\n"
        '  class c = locateClassFQN("com.acme.Greeter");\n'
        "  for (method m in getMethods(c)) {\n"
        "    assert (exists (method n in getMethods(c)) (getName(n) == getName(m))) {\n"
        '      msg("%s", m);\n'
        "    }\n"
        "  }\n"
        "}\n"
    )
    registry = Registry()
    calls = []
    get_methods = registry.builtins["getMethods"]
    fields = {name: getattr(get_methods, name) for name in type(get_methods).__slots__}

    def counting(reg, model, args):
        calls.append(args[0].simple_name)
        return get_methods.fn(reg, model, args)

    registry.builtins = {**registry.builtins,
                         "getMethods": Builtin(**{**fields, "fn": counting})}
    cache = QueryCache()
    interp = Interpreter(model, registry, cache)
    assert interp.run_rule(rule) == []
    methods = len(model.class_by_fqn["com.acme.Greeter"].members().methods)
    assert methods >= 2
    # the for container once, the exists container once, then hits
    assert calls == ["Greeter", "Greeter"]
    assert cache.hits == methods - 1
    assert interp.stats.exists_index_lookups == methods
    assert len(cache.exists_indexes) == 1


def test_unknown_builtin(call):
    with pytest.raises(UnknownBuiltinError):
        call("noSuchThing", 1)


def test_arity_errors(call):
    with pytest.raises(BuiltinArityError):
        call("substring", "abc")
    with pytest.raises(BuiltinArityError):
        call("getXMLs", "extra")
    with pytest.raises(BuiltinArityError):
        call("join", "only-one")


# -- XML group ------------------------------------------------------------------


def test_get_xmls_sorted(call):
    paths = [x.path for x in call("getXMLs")]
    assert paths == sorted(paths)
    assert "src/main/resources/app.xml" in paths


def test_get_elms_by_name(call, app):
    beans = call("getElms", app, "bean")
    assert [e.attrs.get("id") for e in beans] == ["greeter", "plain"]


def test_get_elms_accepts_angle_brackets(call, app):
    assert call("getElms", app, "<bean>") == call("getElms", app, "bean")


def test_get_elms_glob(call, app):
    names = {e.name for e in call("getElms", app, "*")}
    assert names == {"beans", "bean", "constructor-arg", "property"}


def test_get_elms_on_element_excludes_self(call, app):
    bean = call("getElms", app, "bean")[0]
    assert call("getElms", bean, "bean") == []
    assert [e.name for e in call("getElms", bean, "property")] == ["property"]


def test_get_child_elms_holds_only_children(call, app):
    root = app.root
    assert call("getChildElms", app, "<beans>") == [root]
    assert call("getChildElms", app, "bean") == []
    assert [e.attrs.get("id") for e in call("getChildElms", root, "<bean>")] == ["greeter", "plain"]
    assert call("getChildElms", root, "property") == []  # a grandchild
    greeter = call("getChildElms", root, "bean")[0]
    assert [e.name for e in call("getChildElms", greeter, "*")] == ["constructor-arg", "property"]


def test_element_exists(call, app):
    assert call("elementExists", app, "constructor-arg") is True
    assert call("elementExists", app, "import") is False


def test_get_attr(call, app):
    bean = call("getElms", app, "bean")[0]
    assert call("getAttr", bean, "class") == "com.acme.Greeter"
    assert call("getAttr", bean, "nope") is MISSING


def test_get_attrs_glob(call, app):
    bean = call("getElms", app, "bean")[0]
    assert call("getAttrs", bean, "*method") == ["init", "close"]
    assert call("getAttrs", bean, "id") == ["greeter"]
    assert call("getAttrs", bean, "zz*") == []


def test_has_attr(call, app):
    bean = call("getElms", app, "bean")[1]
    assert call("hasAttr", bean, "id") is True
    assert call("hasAttr", bean, "class") is False


def test_xml_missing_policy(call):
    assert call("getElms", MISSING, "bean") == []
    assert call("elementExists", MISSING, "bean") is False
    assert call("getAttr", MISSING, "class") is MISSING
    assert call("getAttrs", MISSING, "*") == []
    assert call("hasAttr", MISSING, "id") is False


# -- code group --------------------------------------------------------------------


def test_get_classes(call, model):
    classes = call("getClasses")
    assert len(classes) == len(model.classes) == 13


def test_class_exists(call):
    assert call("classExists", "com.acme.Greeter") is True
    assert call("classExists", "com.acme.Ghost") is False
    assert call("classExists", MISSING) is False


def test_locate_class_fqn(call):
    cls = call("locateClassFQN", "com.acme.Greeter")
    assert cls.simple_name == "Greeter"
    with pytest.raises(PreconditionError):
        call("locateClassFQN", "com.acme.Ghost")


def test_locate_class_sn_requires_unique(call):
    assert call("locateClassSN", "Leaf").fqn == "com.acme.Leaf"
    with pytest.raises(PreconditionError):
        call("locateClassSN", "Dup")
    with pytest.raises(PreconditionError):
        call("locateClassSN", "Ghost")


def test_is_unique_sn(call):
    assert call("isUniqueSN", "Leaf") is True
    assert call("isUniqueSN", "Dup") is False
    assert call("isUniqueSN", "Ghost") is False
    assert call("isUniqueSN", MISSING) is False


def test_get_sn(call):
    assert call("getSN", "com.acme.Greeter") == "Greeter"
    assert call("getSN", "NoDots") == "NoDots"
    assert call("getSN", call("locateClassFQN", "com.acme.Leaf")) == "Leaf"
    assert call("getSN", MISSING) is MISSING


def test_get_fqn_and_name(call):
    cls = call("locateClassFQN", "com.acme.Greeter")
    assert call("getFQN", cls) == "com.acme.Greeter"
    assert call("getName", cls) == "Greeter"
    methods = call("getMethods", cls)
    assert call("getName", methods[0]) == "setPrefix"
    fields = call("getFields", cls)
    assert call("getName", fields[0]) == "message"
    ctor = call("getConstructors", cls)[0]
    assert call("getName", ctor) == "Greeter"
    assert call("getFQN", MISSING) is MISSING
    assert call("getName", MISSING) is MISSING


def test_get_type_and_return_type(call):
    cls = call("locateClassFQN", "com.acme.Greeter")
    field = call("getFields", cls)[0]
    assert call("getType", field) == "String"
    method = call("getMethods", cls)[0]
    assert call("getReturnType", method) == "void"
    assert call("getType", MISSING) is MISSING
    assert call("getReturnType", MISSING) is MISSING


def test_member_getters(call):
    cls = call("locateClassFQN", "com.acme.Greeter")
    assert [m.name for m in call("getMethods", cls)] == ["setPrefix", "init", "close"]
    assert [f.name for f in call("getFields", cls)] == ["message", "prefix"]
    assert [c.param_count for c in call("getConstructors", cls)] == [1]
    assert call("getMethods", MISSING) == []
    assert call("getFields", MISSING) == []
    assert call("getConstructors", MISSING) == []


def test_get_family_breadth_first(call):
    leaf = call("locateClassFQN", "com.acme.Leaf")
    family = call("getFamily", leaf)
    assert [c.simple_name for c in family] == ["Leaf", "Mid", "Base", "Marker"]


def test_get_family_matches_reference_closure(call, model):
    # independent closure over written supertype names
    def closure(cls):
        seen = {cls.fqn}
        frontier = [cls]
        while frontier:
            nxt = []
            for c in frontier:
                for written in c.supertype_names:
                    base = written.split("<", 1)[0].strip()
                    if "." in base:
                        target = model.class_by_fqn.get(base)
                    else:
                        cands = model.classes_by_sn.get(base, [])
                        target = cands[0] if len(cands) == 1 else None
                    if target is not None and target.fqn not in seen:
                        seen.add(target.fqn)
                        nxt.append(target)
            frontier = nxt
        return seen

    for cls in model.classes:
        family = call("getFamily", cls)
        assert {c.fqn for c in family} == closure(cls), cls.fqn


def test_get_family_strips_generics(call):
    box = call("locateClassFQN", "com.acme.Box")
    assert [c.simple_name for c in call("getFamily", box)] == ["Box", "AbstractHolder"]


def test_get_family_unresolved_supertype(call):
    lone = call("locateClassFQN", "com.acme.Lone")
    assert [c.simple_name for c in call("getFamily", lone)] == ["Lone"]


def test_has_field(call):
    cls = call("locateClassFQN", "com.acme.Greeter")
    assert call("hasField", cls, "prefix") is True
    assert call("hasField", cls, "suffix") is False
    assert call("hasField", MISSING, "prefix") is False
    assert call("hasField", cls, MISSING) is False


def test_has_param_and_type(call):
    ctor = call("getConstructors", call("locateClassFQN", "com.acme.Greeter"))[0]
    assert call("hasParam", ctor, "message") is True
    assert call("hasParam", ctor, "text") is False
    assert call("hasParamType", ctor, "String") is True
    assert call("hasParamType", ctor, "int") is False
    method = call("getMethods", call("locateClassFQN", "com.acme.Greeter"))[0]
    assert call("hasParam", method, "prefix") is True


def test_index_in_bound_coerces_numeric_text(call):
    ctor = call("getConstructors", call("locateClassFQN", "com.acme.Greeter"))[0]
    assert call("indexInBound", ctor, 0) is True
    assert call("indexInBound", ctor, 1) is False
    assert call("indexInBound", ctor, "0") is True
    assert call("indexInBound", ctor, "+0") is True
    assert call("indexInBound", ctor, "٠") is True  # an Arabic-Indic zero
    assert call("indexInBound", ctor, "1") is False
    # text Integer.parseInt rejects is out of bound, not an error
    for text in ("abc", " 0 ", "0_0", "", "-", "0.0", "99999999999"):
        assert call("indexInBound", ctor, text) is False
    assert call("indexInBound", ctor, "-1") is False
    assert call("indexInBound", ctor, -1) is False


def test_index_in_bound_rejects_an_index_of_another_kind(call):
    greeter = call("locateClassFQN", "com.acme.Greeter")
    ctor = call("getConstructors", greeter)[0]
    for index, kind in ((True, "bool"), ([], "list"), (greeter, "class")):
        with pytest.raises(BuiltinTypeError) as exc:
            call("indexInBound", ctor, index)
        assert str(exc.value) == f"'indexInBound' argument 2 must be an integer, got {kind}"


@pytest.mark.parametrize("text, value", [
    ("7", 7), ("+7", 7), ("-7", -7), ("007", 7), ("٣", 3), ("2147483647", 2147483647),
    ("-2147483648", -2147483648),
])
def test_integer_text_reads_like_parse_int(call, text, value):
    assert call("substring", "x" * 12 + "abc", text) == ("x" * 12 + "abc")[max(value, 0):]
    assert call("getArg", "getBean", text) == []


@pytest.mark.parametrize("text", ["1_0", " 1", "1 ", "", "+", "-", "1.0", "0x1", "2147483648",
                                  "-2147483649", "++1", "1e3"])
def test_integer_text_parse_int_rejects_is_a_type_error(call, text):
    for name, args in (("substring", ("abcdef", text)), ("getArg", ("getBean", text))):
        with pytest.raises(BuiltinTypeError, match=f"'{name}' argument 2 must be an integer, got text"):
            call(name, *args)


def test_is_iterable(call):
    holder = call("locateClassFQN", "com.acme.ParamHolder")
    by_name = {m.name: m for m in call("getMethods", holder)}
    assert call("isIterable", by_name["data"]) is True  # Collection<Object[]>
    assert call("isIterable", by_name["grid"]) is True  # int[][]
    assert call("isIterable", by_name["label"]) is False  # String
    assert call("isIterable", by_name["checks"]) is False  # void
    assert call("isIterable", MISSING) is False


def test_call_exists(call):
    assert call("callExists", "getBean") is True
    assert call("callExists", "ClassPathXmlApplicationContext") is True
    assert call("callExists", "getWidget") is False


def test_get_arg_by_callee_name(call):
    assert call("getArg", "getBean", 0) == ["one", "Leaf.class", "two"]
    assert call("getArg", "getBean", 1) == ["Greeter.class"]
    assert call("getArg", "ClassPathXmlApplicationContext", 0) == ["app.xml"]
    assert call("getArg", "getWidget", 0) == []


def test_get_arg_values_carry_their_call_sites(call, model):
    main = "src/main/java/com/acme/Main.java"
    found = call("getArg", "getBean", 0)
    assert [location_of(v) for v in found] == [(main, 6), (main, 7), (main, 10)]
    assert all(isinstance(v, LocatedText) for v in found)
    # text in every other way: equal, hashed and index-keyed as a plain str
    assert found[0] == "one" and hash(found[0]) == hash("one") and {"one": 1}[found[0]] == 1
    assert index_key(found[0]) == "one" and value_eq(found[0], "one")
    assert kind_name(found[0]) == "text" and display(found[0]) == "one"
    assert location_of(call("getArg", model.call_sites("getBean")[0], 0)) == (main, 6)


def test_get_arg_on_call_site(call, model):
    sites = model.call_sites("getBean")
    assert call("getArg", sites[0], 0) == "one"
    assert call("getArg", sites[2], 0) is MISSING  # non-literal argument
    assert call("getArg", sites[0], 5) is MISSING  # out of range
    assert call("getArg", MISSING, 0) == []


def test_is_library_class(call):
    assert call("isLibraryClass", "org.hibernate.cfg.Configuration") is True
    assert call("isLibraryClass", "org.springframework.jdbc.core.JdbcTemplate") is True
    assert call("isLibraryClass", "com.acme.Greeter") is False
    assert call("isLibraryClass", MISSING) is False
    # names under a library namespace match even when no such class exists,
    # which is exactly why renamed project classes there go unreported
    assert call("isLibraryClass", "org.hibernate.search.hibernate.example.dao.impl.BookDaoImplChanged") is True
    assert call("isLibraryClass", "org.hibernate.demo.dao.LegacyDaoChanged") is True


# -- annotations ------------------------------------------------------------------------


def test_get_annotated_classes(call):
    found = call("getAnnotated", "RunWith", "class")
    assert [c.simple_name for c in found] == ["SuiteHolder"]
    assert call("getAnnotated", "org.junit.runner.RunWith", "class") == found


def test_get_annotated_methods_and_fields(call):
    methods = call("getAnnotated", "Parameters", "method")
    assert [m.name for m in methods] == ["data"]
    fields = call("getAnnotated", "Deprecated", "field")
    assert [f.name for f in fields] == ["old"]


def test_get_annotated_bad_kind(call):
    with pytest.raises(PreconditionError):
        call("getAnnotated", "Test", "package")


def test_has_annotation_matches_last_segment(call):
    holder = call("locateClassFQN", "com.acme.SuiteHolder")
    assert call("hasAnnotation", holder, "SuiteClasses") is True
    assert call("hasAnnotation", holder, "Suite.SuiteClasses") is True
    assert call("hasAnnotation", holder, "RunWith") is True
    assert call("hasAnnotation", holder, "Test") is False
    assert call("hasAnnotation", MISSING, "Test") is False


def test_get_anno_attr(call):
    holder = call("locateClassFQN", "com.acme.SuiteHolder")
    assert call("getAnnoAttr", holder, "SuiteClasses", "value") == "Leaf.class"
    assert call("getAnnoAttr", holder, "RunWith", "value") == "Suite.class"
    assert call("getAnnoAttr", holder, "SuiteClasses", "nope") is MISSING
    assert call("getAnnoAttr", holder, "Ghost", "value") is MISSING
    assert call("getAnnoAttr", MISSING, "X", "value") is MISSING


def test_get_anno_attr_values(call):
    holder = call("locateClassFQN", "com.acme.SuiteHolder")
    assert call("getAnnoAttrValues", holder, "SuiteClasses", "value") == ["Leaf.class"]
    assert call("getAnnoAttrValues", holder, "SuiteClasses", "nope") == []
    assert call("getAnnoAttrValues", holder, "Ghost", "value") == []


def test_get_anno_attr_names(call):
    holder = call("locateClassFQN", "com.acme.SuiteHolder")
    assert call("getAnnoAttrNames", holder, "SuiteClasses") == ["value"]
    assert call("getAnnoAttrNames", holder, "Ghost") == []


def test_has_anno_attr(call):
    holder = call("locateClassFQN", "com.acme.SuiteHolder")
    assert call("hasAnnoAttr", holder, "RunWith", "value") is True
    assert call("hasAnnoAttr", holder, "RunWith", "location") is False
    assert call("hasAnnoAttr", MISSING, "RunWith", "value") is False


# -- strings and paths ----------------------------------------------------------------------


def test_string_predicates(call):
    assert call("startsWith", "setFoo", "set") is True
    assert call("startsWith", "foo", "set") is False
    assert call("endsWith", "Foo.class", ".class") is True
    assert call("endsWith", "Foo", ".class") is False
    assert call("startsWith", MISSING, "x") is False
    assert call("endsWith", "x", MISSING) is False


def test_is_empty(call):
    assert call("isEmpty", "") is True
    assert call("isEmpty", "x") is False
    assert call("isEmpty", []) is True
    assert call("isEmpty", ["x"]) is False
    assert call("isEmpty", MISSING) is True
    with pytest.raises(BuiltinTypeError):
        call("isEmpty", 5)


def test_index_of(call):
    assert call("indexOf", "Foo.class", ".class") == 3
    assert call("indexOf", "Foo", ".class") == -1
    assert call("indexOf", MISSING, "x") == -1


def test_substring(call):
    assert call("substring", "abcdef", 2) == "cdef"
    assert call("substring", "abcdef", 1, 4) == "bcd"
    assert call("substring", "abcdef", 0, 0) == ""
    assert call("substring", "abcdef", 4, 2) == ""
    assert call("substring", "abcdef", 0, -1) == ""
    assert call("substring", MISSING, 0) is MISSING
    assert call("substring", "abc", "1", "2") == "b"


def test_upper_case(call):
    assert call("upperCase", "ab-C1") == "AB-C1"
    assert call("upperCase", "") == ""
    assert call("upperCase", MISSING) is MISSING


def test_join_strings_and_lists(call):
    assert call("join", "set", "Foo") == "setFoo"
    assert call("join", "a", "b", "c") == "abc"
    assert call("join", ["a"], ["b", "c"]) == ["a", "b", "c"]
    assert call("join", "a", MISSING) is MISSING
    with pytest.raises(BuiltinTypeError):
        call("join", "a", ["b"])


def test_setter_name_construction(call):
    prop = "ownerName"
    setter = call(
        "join", "set", call("upperCase", call("substring", prop, 0, 1)), call("substring", prop, 1)
    )
    assert setter == "setOwnerName"


def test_path_exists(call):
    assert call("pathExists", "root-ctx.xml") is True
    assert call("pathExists", "app.xml") is True  # via src/main/resources
    assert call("pathExists", "classpath:app.xml") is True
    assert call("pathExists", "classpath*:app.xml") is True
    assert call("pathExists", "/app.xml") is True
    assert call("pathExists", "web.xml") is True  # via WEB-INF
    assert call("pathExists", "conf/unique-name.xml") is True
    assert call("pathExists", "unique-name.xml") is True  # basename fallback
    assert call("pathExists", "dup.xml") is True  # ambiguous basename still found
    assert call("pathExists", "nope.xml") is False
    assert call("pathExists", "../secret.xml") is False
    assert call("pathExists", "") is False
    assert call("pathExists", MISSING) is False


def test_resolve_resource_path_returns_relative_paths(model):
    assert resolve_resource_path("app.xml", model) == "src/main/resources/app.xml"
    assert resolve_resource_path("unique-name.xml", model) == "conf/unique-name.xml"
    assert resolve_resource_path("classpath:web.xml", model) == "WEB-INF/web.xml"
    assert resolve_resource_path("ghost.xml", model) is None


def test_pattern_file_loading(tmp_path):
    path = tmp_path / "libs.txt"
    path.write_text("# comment\n\n^com\\.example\\..+$\n")
    pats = LibraryPatternSet.from_file(path)
    assert pats.matches("com.example.Thing") is True
    assert pats.matches("com.example") is False
    assert pats.matches("org.other.Thing") is False


def test_pattern_file_errors(tmp_path):
    with pytest.raises(PatternFileError):
        LibraryPatternSet.from_file(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("([unclosed\n")
    with pytest.raises(PatternFileError):
        LibraryPatternSet.from_file(bad)


def test_string_properties_seeded(call):
    rng = random.Random(1234)
    alphabet = "abcXYZ.$_-0123456789"
    for _ in range(300):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        t = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 4)))
        joined = call("join", s, t)
        assert joined == s + t
        assert call("isEmpty", joined) == (len(s) + len(t) == 0)
        idx = call("indexOf", s, t)
        assert idx == s.find(t)
        if idx >= 0:
            assert call("substring", s, idx, idx + len(t)) == t
        i = rng.randrange(0, 8)
        j = rng.randrange(0, 8)
        assert call("substring", s, i, j) == s[i:j]
        assert call("upperCase", s) == s.upper()


# -- the built-in contract: MISSING and wrong-kind first arguments ---------------

ANNOTATED = "a class, method, field, or constructor"
CALLABLE = "a method or constructor"

# name: (the other arguments, result with MISSING first, what argument 1
# must be).  A result that is a string is the error text it raises.
CONTRACT = {
    "getElms": (("bean",), [], "an XML file or element"),
    "getChildElms": (("bean",), [], "an XML file or element"),
    "elementExists": (("bean",), False, "an XML file or element"),
    "getAttr": (("id",), MISSING, "an XML element"),
    "getAttrs": (("id",), [], "an XML element"),
    "hasAttr": (("id",), False, "an XML element"),
    "classExists": ((), False, "text"),
    "locateClassFQN": ((), "'locateClassFQN' argument 1 must be text, got missing", "text"),
    "locateClassSN": ((), "'locateClassSN' argument 1 must be text, got missing", "text"),
    "isUniqueSN": ((), False, "text"),
    "getSN": ((), MISSING, "a class or text"),
    "getFQN": ((), MISSING, "a class"),
    "getName": ((), MISSING, "a class, method, field, constructor, XML file, or XML element"),
    "getType": ((), MISSING, "a field"),
    "getReturnType": ((), MISSING, "a method"),
    "getMethods": ((), [], "a class"),
    "getFields": ((), [], "a class"),
    "getConstructors": ((), [], "a class"),
    "getFamily": ((), [], "a class"),
    "hasField": (("x",), False, "a class"),
    "hasParam": (("x",), False, CALLABLE),
    "hasParamType": (("x",), False, CALLABLE),
    "indexInBound": ((0,), False, CALLABLE),
    "isIterable": ((), False, "a method"),
    "callExists": ((), False, "text"),
    "getArg": ((0,), [], "a call site or text"),
    "isLibraryClass": ((), False, "text"),
    "getAnnotated": (("class",), [], "text"),
    "hasAnnotation": (("x",), False, ANNOTATED),
    "getAnnoAttr": (("x", "y"), MISSING, ANNOTATED),
    "getAnnoAttrNames": (("x",), [], ANNOTATED),
    "getAnnoAttrValues": (("x", "y"), [], ANNOTATED),
    "hasAnnoAttr": (("x", "y"), False, ANNOTATED),
    "startsWith": (("x",), False, "text"),
    "endsWith": (("x",), False, "text"),
    "isEmpty": ((), True, "text or a list"),
    "indexOf": (("x",), -1, "text"),
    "substring": ((0,), MISSING, "text"),
    "upperCase": ((), MISSING, "text"),
    "join": (("x",), MISSING, "all text or all lists (bool, text)"),
    "pathExists": ((), False, "text"),
}


def test_contract_table_names_every_builtin_with_arguments():
    assert len(CONTRACT) == 41  # the 43 built-ins less getXMLs and getClasses


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_missing_first_argument(call, name):
    rest, expected, _ = CONTRACT[name]
    if isinstance(expected, str):
        with pytest.raises(BuiltinTypeError) as exc:
            call(name, MISSING, *rest)
        assert str(exc.value) == expected
    else:
        result = call(name, MISSING, *rest)
        assert type(result) is type(expected)
        assert result == expected


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_wrong_kind_first_argument(call, name):
    rest, _, must_be = CONTRACT[name]
    with pytest.raises(BuiltinTypeError) as exc:
        call(name, True, *rest)
    assert str(exc.value) == f"'{name}' argument 1 must be {must_be}, got bool"
