"""Repeated values in the project model are one object.

The Java reader interns every identifier it lexes and every type text it
renders, so equal member names, types and parameter names are shared
across classes and files.  Every parsed XML leaf has the one empty tuple
as its children.  Only object identity is pinned here: what the model
holds compares equal to what it held before the sharing.
"""

import pytest

from mecheck.builtins import Registry
from mecheck.model.project import build_model

JAVA = """package com.acme;

import java.util.List;
import java.util.Map;

public class {name} {{
    private Map<String, Integer> counts;
    private String label;
    private int sizes[];
    public {name}(Map<String, Integer> counts, String label) {{ }}
    public Map<String, Integer> counts(Map<String, Integer> seed, List<String> labels) {{
        return seed;
    }}
    public String label(String label) {{ return label; }}
    public void resize(final int sizes[], String... rest) {{ }}
    public record Part(String... names) {{ }}
}}
"""

XML = """<beans>
    <bean id="alpha" class="com.acme.Alpha">
        <constructor-arg index="0"/>
        <property name="label" value="x"/>
    </bean>
    <bean id="beta" class="com.acme.Beta"/>
    <import resource="other.xml"/>
</beans>
"""


@pytest.fixture
def model(make_project):
    return build_model(make_project({
        "src/main/java/com/acme/Alpha.java": JAVA.format(name="Alpha"),
        "src/main/java/com/acme/Beta.java": JAVA.format(name="Beta"),
        "src/main/resources/beans.xml": XML,
    }))


def _names_and_types(cls):
    """Every name and type text of cls's members, in a fixed order."""
    members = cls.members()
    out = []
    for f in members.fields:
        out += [f.name, f.type_name]
    for m in members.methods:
        out += [m.name, m.return_type]
        for p in m.params:
            out += [p.name, p.type_name]
    for c in members.constructors:
        for p in c.params:
            out += [p.name, p.type_name]
    return out


def test_member_names_and_types_are_shared_across_files(model):
    alpha, alpha_part, beta, beta_part = sorted(model.classes, key=lambda c: c.fqn)
    assert alpha.file_path != beta.file_path
    a = _names_and_types(alpha) + _names_and_types(alpha_part)
    b = _names_and_types(beta) + _names_and_types(beta_part)
    assert a == b
    assert "Map<String, Integer>" in a and "List<String>" in a
    assert "int[]" in a and "String..." in a and "String[]" in a
    for x, y in zip(a, b):
        assert x is y, x


def test_equal_types_within_a_class_are_one_object(model):
    alpha = model.class_by_fqn["com.acme.Alpha"]
    members = alpha.members()
    counts = members.fields[0].type_name
    method = [m for m in members.methods if m.name == "counts"][0]
    assert counts == "Map<String, Integer>"
    assert method.return_type is counts
    assert method.params[0].type_name is counts
    assert members.constructors[0].params[0].type_name is counts
    assert members.fields[2].type_name is [m for m in members.methods
                                           if m.name == "resize"][0].params[0].type_name


def test_parsed_leaves_share_one_empty_tuple(model):
    root = model.xml_files[0].root
    stack, leaves = [root], []
    while stack:
        elem = stack.pop()
        stack.extend(reversed(elem.children))
        if not elem.children:
            leaves.append(elem)
    assert [e.name for e in leaves] == ["constructor-arg", "property", "bean", "import"]
    for leaf in leaves:
        assert leaf.children is leaves[0].children
        assert leaf.children == ()
    assert isinstance(root.children, list)
    assert isinstance(root.children[0].children, list)


def test_element_queries_on_a_leaf(model):
    reg = Registry()
    root = model.xml_files[0].root
    leaf = root.children[1]
    assert leaf.attrs["id"] == "beta" and leaf.children == ()
    assert reg.call("getElms", [leaf, "*"], model) == []
    assert reg.call("getChildElms", [leaf, "*"], model) == []
    assert reg.call("elementExists", [leaf, "*"], model) is False
    alpha = root.children[0]
    assert [e.name for e in reg.call("getElms", [alpha, "*"], model)] == [
        "constructor-arg", "property"]
    assert [e.name for e in reg.call("getChildElms", [alpha, "property"], model)] == ["property"]
    assert reg.call("elementExists", [alpha, "property"], model) is True
    # the leaves' shared tuple is left as it was
    assert leaf.children == () and alpha.children[0].children == ()
