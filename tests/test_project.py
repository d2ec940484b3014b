import pytest

from mecheck.model import javasrc, project
from mecheck.model.project import RootNotFound, build_model

SMALL = {
    "src/main/resources/beans.xml": '<beans><bean id="b" class="com.acme.A"/></beans>',
    "src/main/java/com/acme/A.java": "package com.acme;\n\npublic class A {\n    public void init() { }\n}\n",
    "src/main/java/com/acme/B.java": "package com.acme;\n\npublic class B { }\n",
}


def test_root_must_exist(tmp_path):
    with pytest.raises(RootNotFound):
        build_model(tmp_path / "nope")


def test_files_and_classes_discovered(make_project):
    model = build_model(make_project(SMALL))
    assert [x.path for x in model.xml_files] == ["src/main/resources/beans.xml"]
    assert sorted(c.fqn for c in model.classes) == ["com.acme.A", "com.acme.B"]
    assert model.java_file_count == 2


def test_paths_are_posix_relative_and_sorted(make_project):
    files = {
        "b/two.xml": "<r/>",
        "a/one.xml": "<r/>",
        "a/sub/three.xml": "<r/>",
    }
    model = build_model(make_project(files))
    assert [x.path for x in model.xml_files] == ["a/one.xml", "a/sub/three.xml", "b/two.xml"]


def test_build_is_deterministic(make_project):
    root = make_project(SMALL)
    a = build_model(root)
    b = build_model(root)
    assert [x.path for x in a.xml_files] == [x.path for x in b.xml_files]
    assert [c.fqn for c in a.classes] == [c.fqn for c in b.classes]


def test_ignored_directories_pruned(make_project):
    files = dict(SMALL)
    files["target/generated/Gen.java"] = "public class Gen { }"
    files["build/Out.java"] = "public class Out { }"
    files["out/tmp.xml"] = "<r/>"
    files[".git/objects/junk.xml"] = "<r/>"
    model = build_model(make_project(files))
    assert sorted(c.fqn for c in model.classes) == ["com.acme.A", "com.acme.B"]
    assert [x.path for x in model.xml_files] == ["src/main/resources/beans.xml"]


def test_custom_ignore_globs(make_project):
    files = dict(SMALL)
    files["legacy/Old.java"] = "public class Old { }"
    model = build_model(make_project(files), ("legacy", "target", "build", "out", ".git"))
    assert "Old" not in [c.simple_name for c in model.classes]


def test_ignore_glob_skips_files_by_name(make_project):
    files = dict(SMALL)
    files["src/main/java/com/acme/LegacyThing.java"] = "package com.acme;\npublic class LegacyThing { }"
    files["src/main/resources/OldLegacyBeans.xml"] = "<beans/>"
    model = build_model(make_project(files), ("*Legacy*",))
    assert sorted(c.fqn for c in model.classes) == ["com.acme.A", "com.acme.B"]
    assert [x.path for x in model.xml_files] == ["src/main/resources/beans.xml"]
    assert model.java_file_count == 2


def test_fqn_and_simple_name_indexes(make_project):
    model = build_model(make_project(SMALL))
    a = model.class_by_fqn["com.acme.A"]
    assert a.simple_name == "A"
    assert model.classes_by_sn["A"] == [a]


def test_nested_classes_get_dotted_fqns(make_project):
    files = {
        "Outer.java": "package p;\npublic class Outer {\n    public static class Inner { }\n}\n",
    }
    model = build_model(make_project(files))
    assert sorted(model.class_by_fqn) == ["p.Outer", "p.Outer.Inner"]


def test_default_package_fqn_is_simple_name(make_project):
    model = build_model(make_project({"C.java": "public class C { }"}))
    assert "C" in model.class_by_fqn


def test_duplicate_fqn_keeps_first_and_warns(make_project):
    files = {
        "a/Dup.java": "package p;\npublic class Dup {\n    public void first() { }\n}\n",
        "b/Dup.java": "package p;\npublic class Dup {\n    public void second() { }\n}\n",
    }
    model = build_model(make_project(files))
    dup = model.class_by_fqn["p.Dup"]
    assert dup.file_path == "a/Dup.java"
    assert [m.name for m in dup.members().methods] == ["first"]
    assert any("p.Dup" in w.message for w in model.warnings)


def test_malformed_xml_warns_and_skips(make_project):
    files = dict(SMALL)
    files["bad.xml"] = "<beans><bean></beans>"
    model = build_model(make_project(files))
    assert [x.path for x in model.xml_files] == ["src/main/resources/beans.xml"]
    assert any(w.path == "bad.xml" for w in model.warnings)


def test_xml_parsed_once_per_file(make_project, monkeypatch):
    files = dict(SMALL)
    files["conf/other.xml"] = "<beans/>"
    parsed = []
    real = project.parse_xml

    def spy(path, rel):
        parsed.append(rel)
        return real(path, rel)

    monkeypatch.setattr(project, "parse_xml", spy)
    model = build_model(make_project(files))
    assert parsed == ["conf/other.xml", "src/main/resources/beans.xml"]
    assert [x.path for x in model.xml_files] == parsed


def spy_on(monkeypatch, name):
    """Replace javasrc.<name> with a wrapper that records its arguments."""
    calls = []
    real = getattr(javasrc, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(javasrc, name, spy)
    return calls


def test_one_tokenize_call_per_java_file(make_project, monkeypatch):
    files = dict(SMALL)
    files["src/main/java/com/acme/Outer.java"] = (
        "package com.acme;\npublic class Outer {\n    static class Inner { int x; }\n}\n"
    )
    calls = spy_on(monkeypatch, "tokenize_java")
    model = build_model(make_project(files))
    model.call_sites("getBean")  # reads every class's members
    assert model.java_file_count == 3
    assert len(calls) == 3
    assert sorted(c.fqn for c in model.classes) == [
        "com.acme.A", "com.acme.B", "com.acme.Outer", "com.acme.Outer.Inner",
    ]


def test_one_declaration_scan_per_java_file(make_project, monkeypatch):
    files = dict(SMALL)
    files["src/main/java/com/acme/Outer.java"] = (
        "package com.acme;\npublic class Outer {\n    static class Inner { int x; }\n"
        "    void m() { getBean(\"a\"); }\n}\n"
    )
    scans = spy_on(monkeypatch, "_scan")
    model = build_model(make_project(files))
    assert model.java_file_count == 3
    assert len(scans) == 3
    assert len(model.classes) == 4


def test_unreadable_java_source_warns_with_the_path_as_given(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "B.java").symlink_to(tmp_path / "nowhere")
    monkeypatch.chdir(tmp_path)
    for root, shown in [(".", "a/B.java"), (str(tmp_path), f"{tmp_path}/a/B.java")]:
        model = build_model(root)
        assert [(w.path, w.message) for w in model.warnings] == [
            ("a/B.java",
             f"skipped unreadable Java source: [Errno 2] No such file or directory: '{shown}'"),
        ]


def test_members_filled_by_build_model(make_project, monkeypatch):
    model = build_model(make_project(SMALL))
    tokenized = spy_on(monkeypatch, "tokenize_java")
    extracted = spy_on(monkeypatch, "extract_members")
    a = model.class_by_fqn["com.acme.A"]
    first = a.members()
    assert [m.name for m in first.methods] == ["init"]
    assert all(m.owner is a for m in first.methods)
    assert a.members() is first
    assert model.class_by_fqn["com.acme.B"].members().methods == ()
    assert tokenized == [] and extracted == []


def test_duplicate_fqn_gets_no_member_extraction(make_project, monkeypatch):
    files = {
        "a/Dup.java": "package p;\npublic class Dup {\n    public void first() { }\n}\n",
        "b/Dup.java": "package p;\npublic class Dup {\n    public void second() { }\n}\n",
    }
    calls = spy_on(monkeypatch, "extract_members")
    model = build_model(make_project(files))
    assert len(calls) == 1
    assert [m.name for m in model.class_by_fqn["p.Dup"].members().methods] == ["first"]


def test_members_survive_rewrite_and_delete_of_sources(make_project, tmp_path):
    model = build_model(make_project(SMALL))
    (tmp_path / "src/main/java/com/acme/A.java").write_text(
        "package com.acme;\n\npublic class A {\n"
        "    int one; int two; int three;\n"
        "    public void other() { }\n}\n"
    )
    (tmp_path / "src/main/java/com/acme/B.java").unlink()
    a = model.class_by_fqn["com.acme.A"]
    assert [m.name for m in a.members().methods] == ["init"]
    assert [m.line for m in a.members().methods] == [4]
    assert a.members().fields == ()
    assert model.class_by_fqn["com.acme.B"].members().methods == ()
    assert model.warnings == []


def test_call_sites_collected_by_callee(make_project):
    files = {
        "Main.java": (
            "public class Main {\n"
            "    void run() {\n"
            '        Object ctx = new ClassPathXmlApplicationContext("app.xml");\n'
            '        Object a = ctx.getBean("one");\n'
            '        Object b = ctx.getBean("two");\n'
            "    }\n"
            "}\n"
        ),
    }
    model = build_model(make_project(files))
    gets = model.call_sites("getBean")
    assert [c.string_args for c in gets] == [("one",), ("two",)]
    assert [c.ordinal for c in gets] == [1, 2]
    assert all(c.file_path == "Main.java" for c in gets)
    loads = model.call_sites("ClassPathXmlApplicationContext")
    assert len(loads) == 1
    assert loads[0].string_args == ("app.xml",)


def test_undecodable_bytes_tolerated(make_project, tmp_path):
    root = make_project(dict(SMALL))
    (root / "Odd.java").write_bytes(b"public class Odd { /* \xff\xfe */ }\n")
    model = build_model(root)
    assert "Odd" in model.class_by_fqn
    assert model.java_file_count == 3
