"""Valid but unusual input never aborts a check.

Generated project trees, written to disk, go through cli.main and
run_checker: Java sources from tests/javagen.py, deeply nested code, open
comments and text blocks, byte order marks, bytes that are not UTF-8, and
XML with a huge attribute count or deep nesting.  The exit code is 0, 1 or
2, never 3 (internal error), and the reports are those of the cache-free
reference interpreter.  A source path that is no regular file is skipped, never read.

XML shapes a beans file may legally take (prefixed names, colliding local
names, namespace declarations, DTD-defaulted attributes, CDATA, comments
and processing instructions, a Latin-1 declaration, 3000-deep nesting)
each have a pinned model and a pinned CLI result.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from javagen import java_sources
from reference_check import reference_check

from mecheck import cli, runner
from mecheck.builtins import Registry
from mecheck.model.xmldoc import parse_xml

BOM = "﻿".encode()
NOT_UTF8 = [b"\xff\xfe", b"caf\xe9", b"\xc3", b"\x80\x81"]

_trees = itertools.count()


def deep_java(depth):
    classes = "".join(f"static class N{k} {{ " for k in range(depth))
    blocks = "{ " * depth + 'getBean("deep");' + " }" * depth
    return (f"package com.deep;\nclass Deep {{ {classes}void m() {{ {blocks} }}"
            + " }" * depth + " }\n")


def beans_xml(classes, attributes, depth):
    beans = "".join(f'<bean id="b{k}" class="{name}"><property name="p"/></bean>'
                    for k, name in enumerate(classes))
    wide = "".join(f' a{k}="{k}"' for k in range(attributes))
    deep = "<bean>" * depth + "</bean>" * depth
    return (f'<?xml version="1.0" encoding="UTF-8"?>\n<beans>{beans}<bean id="wide"{wide}/>'
            f"<bean id=\"outer\" class=\"com.x.Outer\">{deep}</bean></beans>\n")


@st.composite
def project_trees(draw):
    """Relative path -> file bytes."""
    files = {}
    for k, source in enumerate(draw(st.lists(java_sources(), min_size=1, max_size=4))):
        data = source.encode()
        if draw(st.booleans()):
            data = BOM + data
        if draw(st.integers(0, 3)) == 0:
            cut = draw(st.integers(0, len(data)))
            data = data[:cut] + draw(st.sampled_from(NOT_UTF8)) + data[cut:]
        files[f"src/main/java/com/acme/F{k}.java"] = data
    if draw(st.booleans()):
        files["src/main/java/com/deep/Deep.java"] = deep_java(draw(st.integers(1, 300))).encode()
    xml = beans_xml(
        draw(st.lists(st.sampled_from(["com.acme.A0", "com.acme.Bean0", "A0", "com.x.Y", ""]),
                      max_size=4)),
        draw(st.sampled_from([0, 3, 5000])),
        draw(st.sampled_from([0, 10, 2000])),
    ).encode()
    if draw(st.booleans()):
        xml = BOM + xml
    files["src/main/resources/beans.xml"] = xml
    files["src/main/resources/odd.xml"] = draw(st.sampled_from([
        b"<beans><!-- never closed", b"<beans><bean class='caf\xe9'/></beans>",
        b'<beans><bean class="com.acme.A0"', b"",
    ]))
    return files


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def reports_without_time(summary):
    payload = json.loads(runner.render_json(summary))
    del payload["summary"]["elapsedMs"]
    return payload, summary.diagnostics, summary.warnings


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(project_trees())
def test_generated_trees_never_abort_and_ignore_the_cache(tmp_path, capsys, files):
    root = tmp_path / f"tree{next(_trees)}"
    write_tree(root, files)
    assert cli.main(["--project", str(root), "--format", "json"]) in (0, 1, 2)
    capsys.readouterr()
    config = runner.CheckerConfig(project_root=str(root))
    assert reports_without_time(runner.run_checker(config)) == reports_without_time(
        reference_check(config))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifos_named_like_sources_are_skipped_unopened(tmp_path):
    # Opening a FIFO for reading blocks until a writer comes, so a check
    # that read one would never end; the timeout catches that.
    (tmp_path / "ctx.xml").write_text('<beans><bean id="a" class="p.A"/></beans>\n')
    (tmp_path / "A.java").write_text("package p;\npublic class A { }\n")
    os.mkfifo(tmp_path / "X.java")
    os.mkfifo(tmp_path / "pipe.xml")
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "mecheck.cli", "--project", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "mecheck: warning: pipe.xml: skipped: not a regular file",
        "mecheck: warning: X.java: skipped: not a regular file",
    ]
    assert proc.stdout == "0 findings across 15 rules\n"


# -- XML shapes ---------------------------------------------------------------

SHAPES_JAVA = ("package com.acme;\n\npublic class A {\n    public void start() { }\n"
               "    public void setName(String n) { }\n}\n")
BEANS = "src/main/resources/beans.xml"


def shape_project(tmp_path, xml):
    write_tree(tmp_path, {"src/main/java/com/acme/A.java": SHAPES_JAVA.encode(), BEANS: xml})
    return tmp_path


def model_of(root):
    """(name, attrs as pairs, line) of every element, in document order."""
    doc = parse_xml(root / BEANS, BEANS)
    return [(e.name, list(e.attrs.items()), e.line) for e in doc.iter_elements()]


def cli_result(root, capsys):
    code = cli.main(["--project", str(root)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def r2_line(line, cls, bean):
    return (f"RULE r2-bean-class-exists {BEANS}:{line}: Bean class {cls} declared by {bean} "
            "does not exist in the project and matches no library pattern")


def test_prefixed_element_and_attribute_names(tmp_path, capsys):
    root = shape_project(tmp_path, (
        b'<b:beans xmlns:b="urn:beans" xmlns:p="urn:p">\n'
        b'  <b:bean id="a" p:class="com.acme.Gone" b:init-method="stop"/>\n'
        b'  <b:bean b:id="k" class="com.acme.A">\n'
        b'    <b:property p:name="name" value="x"/>\n'
        b'    <p:property name="size"/>\n'
        b'  </b:bean>\n'
        b'</b:beans>\n'))
    assert model_of(root) == [
        ("beans", [("b", "urn:beans"), ("p", "urn:p")], 1),
        ("bean", [("id", "a"), ("class", "com.acme.Gone"), ("init-method", "stop")], 2),
        ("bean", [("id", "k"), ("class", "com.acme.A")], 3),
        ("property", [("name", "name"), ("value", "x")], 4),
        ("property", [("name", "size")], 5),
    ]
    assert cli_result(root, capsys) == (1, [
        r2_line(2, "com.acme.Gone", '<bean id="a">'),
        f"RULE r7-property-setter-map {BEANS}:5: Property size of <property> has no setter "
        "setSize in class com.acme.A",
        "2 findings across 15 rules",
    ], "")


def test_prefixed_attribute_colliding_with_a_plain_one_keeps_the_first(tmp_path, capsys):
    root = shape_project(tmp_path, (
        b'<beans xmlns:p="urn:p">\n'
        b'  <bean id="u" class="com.acme.A" p:class="com.acme.Gone"/>\n'
        b'  <bean id="v" p:class="com.acme.Gone" class="com.acme.A"/>\n'
        b'</beans>\n'))
    assert model_of(root) == [
        ("beans", [("p", "urn:p")], 1),
        ("bean", [("id", "u"), ("class", "com.acme.A")], 2),
        ("bean", [("id", "v"), ("class", "com.acme.Gone")], 3),
    ]
    assert cli_result(root, capsys) == (1, [
        r2_line(3, "com.acme.Gone", '<bean id="v">'), "1 findings across 15 rules"], "")


def test_namespace_declarations_are_attributes(tmp_path, capsys):
    root = shape_project(tmp_path, (
        b'<beans xmlns="http://www.springframework.org/schema/beans"\n'
        b'       xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"\n'
        b'       xsi:schemaLocation="urn:a urn:b">\n'
        b'  <bean id="a" class="com.acme.A" xmlns:q="urn:q" q:init-method="stop"/>\n'
        b'</beans>\n'))
    assert model_of(root) == [
        ("beans", [("xmlns", "http://www.springframework.org/schema/beans"),
                   ("xsi", "http://www.w3.org/2001/XMLSchema-instance"),
                   ("schemaLocation", "urn:a urn:b")], 1),
        ("bean", [("id", "a"), ("class", "com.acme.A"), ("q", "urn:q"),
                  ("init-method", "stop")], 4),
    ]
    assert cli_result(root, capsys) == (1, [
        f'RULE r6-method-exists {BEANS}:4: The referenced method stop of <bean id="a"> '
        "does not exist in class com.acme.A",
        "1 findings across 15 rules",
    ], "")


def test_dtd_defaulted_attributes_come_after_the_written_ones(tmp_path, capsys):
    # A default fills only an attribute the tag leaves out; p:id's local
    # name collides with a written id, which comes first and wins.
    root = shape_project(tmp_path, (
        b'<?xml version="1.0"?>\n'
        b'<!DOCTYPE beans [\n'
        b'  <!ATTLIST bean class CDATA "com.acme.Defaulted" p:id CDATA "dflt">\n'
        b']>\n'
        b'<beans>\n'
        b'  <bean id="a"/>\n'
        b'  <bean class="com.acme.A"/>\n'
        b'</beans>\n'))
    assert model_of(root) == [
        ("beans", [], 5),
        ("bean", [("id", "a"), ("class", "com.acme.Defaulted")], 6),
        ("bean", [("class", "com.acme.A"), ("id", "dflt")], 7),
    ]
    assert cli_result(root, capsys) == (1, [
        r2_line(6, "com.acme.Defaulted", '<bean id="a">'), "1 findings across 15 rules"], "")


def test_cdata_comments_and_processing_instructions_make_no_elements(tmp_path, capsys):
    root = shape_project(tmp_path, (
        b'<?xml version="1.0"?>\n'
        b'<!-- head -->\n'
        b'<beans><!-- between --><?mark data?>\n'
        b'  <bean id="a" class="com.acme.A">'
        b'<![CDATA[<bean id="fake" class="com.acme.Gone"/>]]></bean>\n'
        b'  <?mark more?><![CDATA[ ]]><!-- <bean class="com.acme.Gone"/> -->\n'
        b'  <bean id="b" class="com.acme.Gone"/>\n'
        b'</beans>\n'
        b'<!-- tail -->\n'))
    assert model_of(root) == [
        ("beans", [], 3),
        ("bean", [("id", "a"), ("class", "com.acme.A")], 4),
        ("bean", [("id", "b"), ("class", "com.acme.Gone")], 6),
    ]
    assert cli_result(root, capsys) == (1, [
        r2_line(6, "com.acme.Gone", '<bean id="b">'), "1 findings across 15 rules"], "")


def test_latin1_declaration_is_decoded(tmp_path, capsys):
    root = shape_project(tmp_path, (
        b'<?xml version="1.0" encoding="ISO-8859-1"?>\n'
        b'<beans>\n'
        b'  <bean id="caf\xe9" class="com.acme.Caf\xe9"/>\n'
        b'</beans>\n'))
    assert model_of(root) == [
        ("beans", [], 2),
        ("bean", [("id", "café"), ("class", "com.acme.Café")], 3),
    ]
    assert cli_result(root, capsys) == (1, [
        r2_line(3, "com.acme.Café", '<bean id="café">'),
        "1 findings across 15 rules"], "")


def test_3000_deep_nesting_is_queried_from_the_file_and_from_inside(tmp_path, capsys):
    depth = 3000
    root = shape_project(tmp_path, (
        "<beans>\n" + "<bean>\n" * (depth - 1) + '<bean class="com.acme.Gone"/>\n'
        + "</bean>\n" * (depth - 1) + "</beans>\n").encode())
    doc = parse_xml(root / BEANS, BEANS)
    call = Registry().call
    beans = call("getElms", [doc, "<bean>"], None)
    assert [e.line for e in beans] == list(range(2, depth + 2))
    assert call("getElms", [doc, "*"], None) == [doc.root, *beans]
    inner = beans[999]
    assert call("getElms", [inner, "<bean>"], None) == beans[1000:]
    assert call("elementExists", [inner, "bean"], None) is True
    assert call("elementExists", [beans[-1], "bean"], None) is False
    assert cli_result(root, capsys) == (1, [
        r2_line(depth + 1, "com.acme.Gone", "<bean>"), "1 findings across 15 rules"], "")


def test_a_config_path_too_long_for_the_file_system_is_reported_missing(tmp_path, capsys):
    # each candidate lookup of this name fails with ENAMETOOLONG
    loc = "x" * 300 + ".xml"
    write_tree(tmp_path, {
        "src/main/java/p/A.java": (
            f'package p;\n\n@ImportResource(location = {{"{loc}"}})\npublic class A {{\n'
            f'    void m() {{ new ClassPathXmlApplicationContext("{loc}"); }}\n}}\n').encode(),
        "src/main/resources/ctx.xml": f'<beans><import resource="{loc}"/></beans>\n'.encode(),
    })
    code, out, err = cli_result(tmp_path, capsys)
    assert (code, err) == (1, "")
    # r14 reports the @ImportResource location and the <import> resource
    assert [line.split(" ", 2)[1] for line in out[:-1]] == [
        "r1-xml-path-check", "r14-import-resource-path", "r14-import-resource-path"]
    assert all(f" {loc} " in line for line in out[:-1])
    assert out[-1] == "3 findings across 15 rules"
