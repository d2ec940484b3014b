import pytest

from mecheck.model.xmldoc import MalformedXmlError, parse_xml

BEANS = """\
<?xml version="1.0" encoding="UTF-8"?>
<beans xmlns="http://www.springframework.org/schema/beans"
       xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
  <bean id="greeter" class="com.acme.Greeter" init-method="init">
    <constructor-arg name="message" index="0" value="Hi"/>
    <property name="prefix" value="Hello"/>
  </bean>
  <bean id="jdbc" class="org.springframework.jdbc.core.JdbcTemplate"/>
</beans>
"""


def parse_text(tmp_path, text, name="f.xml"):
    path = tmp_path / name
    path.write_text(text)
    return parse_xml(path, name)


def test_tree_structure(tmp_path):
    doc = parse_text(tmp_path, BEANS)
    assert doc.path == "f.xml"
    assert doc.root.name == "beans"
    assert [c.name for c in doc.root.children] == ["bean", "bean"]
    greeter = doc.root.children[0]
    assert [c.name for c in greeter.children] == ["constructor-arg", "property"]


def test_attributes_keep_document_order(tmp_path):
    doc = parse_text(tmp_path, BEANS)
    greeter = doc.root.children[0]
    assert list(greeter.attrs) == ["id", "class", "init-method"]
    assert greeter.attrs["class"] == "com.acme.Greeter"
    arg = greeter.children[0]
    assert list(arg.attrs) == ["name", "index", "value"]


def test_line_numbers(tmp_path):
    doc = parse_text(tmp_path, BEANS)
    assert doc.root.line == 2
    greeter = doc.root.children[0]
    assert greeter.line == 4
    assert greeter.children[0].line == 5
    assert doc.root.children[1].line == 8


def test_every_element_backrefs_its_file(tmp_path):
    doc = parse_text(tmp_path, BEANS)
    assert all(e.file is doc for e in doc.iter_elements())


def test_namespace_prefix_stripped_from_names(tmp_path):
    text = """\
<root xmlns:util="http://example.com/util">
  <util:list id="xs" util:size="2"/>
</root>
"""
    doc = parse_text(tmp_path, text)
    child = doc.root.children[0]
    assert child.name == "list"
    assert child.attrs == {"id": "xs", "size": "2"}


def test_attr_collision_after_prefix_strip_keeps_first(tmp_path):
    text = '<r xmlns:a="urn:a"><e size="1" a:size="2"/></r>'
    doc = parse_text(tmp_path, text)
    assert doc.root.children[0].attrs["size"] == "1"


def test_iter_subtree_is_document_order(tmp_path):
    text = "<a><b><c/></b><d/></a>"
    doc = parse_text(tmp_path, text)
    assert [e.name for e in doc.iter_elements()] == ["a", "b", "c", "d"]


def test_malformed_unclosed_tag(tmp_path):
    with pytest.raises(MalformedXmlError) as exc:
        parse_text(tmp_path, "<beans><bean></beans>")
    assert exc.value.path == "f.xml"
    assert exc.value.line >= 1


def test_malformed_junk(tmp_path):
    with pytest.raises(MalformedXmlError):
        parse_text(tmp_path, "this is not xml at all")


def test_malformed_duplicate_attr(tmp_path):
    with pytest.raises(MalformedXmlError):
        parse_text(tmp_path, '<r a="1" a="2"/>')


def test_missing_file(tmp_path):
    with pytest.raises(MalformedXmlError):
        parse_xml(tmp_path / "nope.xml", "nope.xml")


def test_empty_self_closing_root(tmp_path):
    doc = parse_text(tmp_path, "<beans/>")
    assert doc.root.name == "beans"
    assert doc.root.children == ()
    assert doc.root.attrs == {}
