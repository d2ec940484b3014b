from pathlib import Path
from unittest import mock

import pytest
import reference_tokenizer
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from javagen import java_sources

from mecheck.model import javasrc
from mecheck.model.items import ClassItem
from mecheck.model.javasrc import (
    CHAR,
    IDENT,
    NUMBER,
    PUNCT,
    STRING,
    decode_java_string,
    extract_members,
    scan_declarations,
    tokenize_java,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def decls_of(source):
    return scan_declarations(tokenize_java(source))


def owner_of(raw, file_path="M.java"):
    return ClassItem(raw.simple_name, raw.simple_name, raw.kind,
                     raw.supertype_names, raw.annotations, file_path, raw.line)


def members_of(source, type_index=0):
    toks = tokenize_java(source)
    raw = scan_declarations(toks).types[type_index]
    return extract_members(toks, raw, owner_of(raw))


def test_tokenizer_drops_comments_and_keeps_strings():
    toks = tokenize_java('// line\n/* block\nmore */ String s = "a \\"b\\" c"; char c = \'x\';')
    texts = [text for _, text, _ in toks]
    assert texts[0] == "String"
    assert '"a \\"b\\" c"' in texts
    strings = [t for t in toks if t[0] == STRING]
    assert len(strings) == 1
    chars = [t for t in toks if t[0] == CHAR]
    assert [text for _, text, _ in chars] == ["'x'"]


def test_tokens_are_plain_kind_text_line_tuples():
    assert tokenize_java('class A {\n  String s = "x";\n}') == [
        (IDENT, "class", 1), (IDENT, "A", 1), (PUNCT, "{", 1),
        (IDENT, "String", 2), (IDENT, "s", 2), (PUNCT, "=", 2), (STRING, '"x"', 2), (PUNCT, ";", 2),
        (PUNCT, "}", 3),
    ]
    assert {type(tok) for tok in tokenize_java("a£b 1 'c' { f(); }")} == {tuple}


def test_tokenizer_line_numbers():
    toks = tokenize_java("class A {\n  int x;\n}")
    _, _, line = [t for t in toks if t[1] == "x"][0]
    assert line == 2


def triples(text):
    return tokenize_java(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        # Unicode letters start identifiers
        ("é ä µ", [(IDENT, "é", 1), (IDENT, "ä", 1), (IDENT, "µ", 1)]),
        # any Unicode letter, digit or numeric char continues one
        (
            "aé2 b²c d٣ xⅧ",
            [(IDENT, "aé2", 1), (IDENT, "b²c", 1), (IDENT, "d٣", 1), (IDENT, "xⅧ", 1)],
        ),
        # digits start numbers; a letter number starts an identifier
        ("² ٣ Ⅷ 7", [(NUMBER, "²", 1), (NUMBER, "٣", 1), (IDENT, "Ⅷ", 1), (NUMBER, "7", 1)]),
        (
            "$x _y a$b_c $ _",
            [(IDENT, "$x", 1), (IDENT, "_y", 1), (IDENT, "a$b_c", 1), (IDENT, "$", 1), (IDENT, "_", 1)],
        ),
        (
            's = "a\\"b" + \'\\n\' + "\\\\"',
            [
                (IDENT, "s", 1), (PUNCT, "=", 1), (STRING, '"a\\"b"', 1), (PUNCT, "+", 1),
                (CHAR, "'\\n'", 1), (PUNCT, "+", 1), (STRING, '"\\\\"', 1),
            ],
        ),
        (
            't = """\nline "q"\n""" ; u',
            [(IDENT, "t", 1), (PUNCT, "=", 1), (STRING, '"""\nline "q"\n"""', 1),
             (PUNCT, ";", 3), (IDENT, "u", 3)],
        ),
        ('a // c "x\nb /* c\n d */ e', [(IDENT, "a", 1), (IDENT, "b", 2), (IDENT, "e", 3)]),
        # an unterminated comment or text block ends the stream
        ("a /* open\nb", [(IDENT, "a", 1)]),
        ('x = """open', [(IDENT, "x", 1), (PUNCT, "=", 1)]),
        # an unterminated string or char literal is dropped up to the line end
        ("a \"open\nb 'c\nd", [(IDENT, "a", 1), (IDENT, "b", 2), (IDENT, "d", 3)]),
        ("a\r\nb\r\n\r\nc", [(IDENT, "a", 1), (IDENT, "b", 2), (IDENT, "c", 4)]),
        # currency symbols and connectors start and continue identifiers
        (
            "£y a£b x‿y € 1£ «",
            [(IDENT, "£y", 1), (IDENT, "a£b", 1), (IDENT, "x‿y", 1), (IDENT, "€", 1),
             (NUMBER, "1", 1), (IDENT, "£", 1), (PUNCT, "«", 1)],
        ),
    ],
)
def test_tokenizer_character_classes(text, expected):
    assert triples(text) == expected
    assert reference_tokenizer.tokenize(text) == expected


FRAGMENTS = [
    "é", "ä", "µ", "²", "٣", "Ⅷ", "£", "€", "‿", "«", "$", "_", "a", "Zq", "0", "9", "0x1F", "3.14", "1_000", ".",
    '"', "'", '"""', "\\", '\\"', "\\'", "//", "/*", "*/", "*",
    " ", "\t", "\f", "\r", "\n", "\r\n",
    "(", ")", "{", "}", ";", "@", "<", ">", ",", "=", "class", "getBean", "class Zq {",
]


def skipped_bodies(text):
    """The indices of the '{' of every body tokenize_java skips in text, in
    order."""
    seen = []
    reader = None
    read_block = javasrc._read_block

    def spy(r, b, calls):
        nonlocal reader
        if r is not reader:  # a read of the file afresh, bodies unskipped
            reader = r
            seen.clear()
        skipped = r.skipped
        end = read_block(r, b, calls)
        if r.skipped > skipped:
            seen.append(b)
        return end

    with mock.patch.object(javasrc, "_read_block", spy):
        tokenize_java(text)
    return seen


def first_member_body(text):
    """The index of the '{' of the first body tokenize_java skips in text,
    or None."""
    bodies = skipped_bodies(text)
    return bodies[0] if bodies else None


def without_bodies(expected, bodies):
    """The reference tokens with the inside of each skipped body removed;
    bodies holds the index of each one's '{' in the tokens that skip it."""
    out = []
    j = 0  # the reference token that the next token of out stands for
    for b in bodies:
        k = j + b - len(out)  # the body's '{'
        out += expected[j : k + 1]
        depth = 0
        j = k
        while True:  # on to the '}' that closes it
            kind, tok, _ = expected[j]
            if kind == PUNCT and tok in ("{", "}"):
                depth += 1 if tok == "{" else -1
                if depth == 0:
                    break
            j += 1
    return out + expected[j:]


def assert_tokens_match_reference(text):
    """Exact, lines included, but that each body the reader skips keeps
    only its braces."""
    bodies = skipped_bodies(text)
    assert tokenize_java(text) == without_bodies(reference_tokenizer.tokenize(text), bodies)


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.characters(max_codepoint=0x2FFF)),
        max_size=60,
    ).map("".join)
)
def test_tokenizer_matches_reference(text):
    assert_tokens_match_reference(text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(java_sources())
def test_tokenizer_matches_reference_on_generated_sources(text):
    assert_tokens_match_reference(text)


def test_tokenizer_matches_reference_on_fixture_files():
    files = sorted(FIXTURES.glob("**/*.java"))
    assert files
    for path in files:
        assert_tokens_match_reference(path.read_text(encoding="utf-8"))


def test_first_member_body_passes_type_bodies_and_annotations():
    text = 'class A { @B({"{"}) int[] f = {1}; void m() { x(); } }'
    tokens = tokenize_java(text)
    assert tokens[first_member_body(text) - 1][1] == ")"  # m's body, not the initializer
    assert first_member_body("class A { class B { } }") is None
    # an enum's constants are read in full, bodies in them included
    assert first_member_body("enum E { X { void f() { g(); } }, Y }") is None


def test_a_construct_left_open_is_read_again_a_bounded_number_of_times(monkeypatch):
    reads = []
    parse_annotation = javasrc._parse_annotation
    monkeypatch.setattr(javasrc, "_parse_annotation",
                        lambda toks, i: reads.append(i) or parse_annotation(toks, i))
    toks = tokenize_java("class A { @A( " + "(x){ } " * 1000)
    scan_declarations(toks)
    assert 0 < len(reads) <= javasrc._MAX_STALLS + 2
    assert [text for _, text, _ in toks].count("{") == 1001  # no body is skipped


def test_a_long_field_initializer_is_read_a_bounded_number_of_times(monkeypatch):
    reads = []
    parse_field_decl = javasrc._parse_field_decl
    monkeypatch.setattr(javasrc, "_parse_field_decl",
                        lambda *args: reads.append(args[1]) or parse_field_decl(*args))
    text = ("class A { int[][] a = {" + ", ".join(["{1}"] * 2000) + "}; int b;"
            " void m() { getBean(\"x\"); } void n() { f(); } }")
    toks = tokenize_java(text)
    raw = scan_declarations(toks).types[0]
    m = extract_members(toks, raw, owner_of(raw))
    assert 0 < len(reads) <= javasrc._MAX_STALLS + 2
    assert [f.name for f in m.fields] == ["a", "b"]
    assert [c.string_args for c in m.call_sites] == [("x",)]
    # m's body, which holds a watched call, is lexed in full; n's after it is skipped
    assert [text for _, text, _ in toks][-14:] == [
        "{", "getBean", "(", '"x"', ")", ";", "}", "void", "n", "(", ")", "{", "}", "}"]


def many_constant_bodies(n):
    consts = ", ".join(f"C{k} {{ int f() {{ return {k}; }} }}" for k in range(n))
    return (f'enum E {{ {consts}; void m() {{ getBean("x"); }} }}'
            " class B { void n() { a(); b(); c(); } }")


def test_an_enum_of_many_constant_bodies_stops_no_later_skip():
    toks = tokenize_java(many_constant_bodies(20))
    e, b = scan_declarations(toks).types
    assert [c.string_args for c in extract_members(toks, e, owner_of(e)).call_sites] == [("x",)]
    assert extract_members(toks, b, owner_of(b)).methods[0].name == "n"
    # n's body keeps only its braces
    assert [text for _, text, _ in toks][-11:] == [
        "}", "class", "B", "{", "void", "n", "(", ")", "{", "}", "}"]


def test_an_enum_of_5000_constant_bodies_is_read_a_bounded_number_of_times(monkeypatch):
    reads = []
    skip_enum_constants = javasrc._skip_enum_constants
    monkeypatch.setattr(javasrc, "_skip_enum_constants",
                        lambda *args: reads.append(args[1]) or skip_enum_constants(*args))
    toks = tokenize_java(many_constant_bodies(5000))
    e, b = scan_declarations(toks).types
    assert 0 < len(reads) <= javasrc._MAX_STALLS + 2
    assert [c.string_args for c in extract_members(toks, e, owner_of(e)).call_sites] == [("x",)]
    assert [text for _, text, _ in toks][-3:] == ["{", "}", "}"]


def annos_view(annotations):
    return [(a.name, a.attrs, a.line) for a in annotations]


def decls_view(decls):
    return decls.package, decls.imports, [
        (t.simple_name, t.kind, t.supertype_names, annos_view(t.annotations), t.line, t.nesting,
         t.body_start, t.body_end,
         [(p.type_name, p.name, annos_view(annos), line) for p, annos, line in t.components])
        for t in decls.types
    ]


def assert_carried_decls_are_a_fresh_scan(text):
    toks = tokenize_java(text)
    assert decls_view(scan_declarations(toks)) == decls_view(scan_declarations(list(toks)))


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.characters(max_codepoint=0x2FFF)),
        max_size=60,
    ).map("".join)
)
def test_carried_decls_equal_a_fresh_scan_of_fragments(text):
    """Rewinds, stalls and text that ends inside a watched call included."""
    assert_carried_decls_are_a_fresh_scan(text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(java_sources())
def test_carried_decls_equal_a_fresh_scan_of_generated_sources(text):
    assert_carried_decls_are_a_fresh_scan(text)


def test_carried_decls_after_a_stall_equal_a_fresh_scan():
    assert_carried_decls_are_a_fresh_scan(
        "class A { @A( " + "(x){ } " * 40 + ") int f; class B { void m() { } } }")


def test_package_annotations_do_not_annotate_the_first_type():
    decls = decls_of("@Deprecated package com.acme; class A {}")
    assert decls.package == "com.acme"
    assert [t.simple_name for t in decls.types] == ["A"]
    assert decls.types[0].annotations == ()
    annotated = decls_of("@Deprecated package com.acme; @Named class A {}")
    assert [a.name for a in annotated.types[0].annotations] == ["Named"]


def test_package_imports_and_class():
    src = """\
package com.acme.app;

import java.util.List;
import static java.util.Arrays.asList;
import java.util.*;

public class Greeter {
}
"""
    decls = decls_of(src)
    assert decls.package == "com.acme.app"
    assert decls.imports == ["java.util.List", "static java.util.Arrays.asList", "java.util.*"]
    assert len(decls.types) == 1
    assert decls.types[0].simple_name == "Greeter"
    assert decls.types[0].kind == "class"
    assert decls.types[0].line == 7


def test_supertypes_extends_and_implements():
    src = "class A extends Base implements Runnable, java.io.Serializable { }"
    t = decls_of(src).types[0]
    assert t.supertype_names == ("Base", "Runnable", "java.io.Serializable")


def test_generic_supertype_rendering():
    src = "class A extends AbstractList<String> { }"
    t = decls_of(src).types[0]
    assert t.supertype_names == ("AbstractList<String>",)


@pytest.mark.parametrize("header", [
    'class A implements @Tag({"x"}) B',
    "class A implements @NonNull B",
    "class A implements @a.b.Tag(value = {1, 2}, k = \"}\") B",
])
def test_type_annotations_are_not_part_of_supertype_names(header):
    toks = tokenize_java(header + " { int f; void m() { getBean(\"y\"); } }")
    raw = scan_declarations(toks).types[0]
    assert raw.supertype_names == ("B",)
    members = extract_members(toks, raw, owner_of(raw))
    assert [f.name for f in members.fields] == ["f"]
    assert [m.name for m in members.methods] == ["m"]
    assert [c.callee_name for c in members.call_sites] == ["getBean"]


def test_type_annotations_inside_supertype_type_arguments_are_dropped():
    src = "class A extends Base<@NonNull String, Map<@K({1}) K, V>> implements I { }"
    t = decls_of(src).types[0]
    assert t.supertype_names == ("Base<String, Map<K, V>>", "I")


def test_interface_and_enum_kinds():
    src = "interface I { }\nenum E { A, B }\n"
    decls = decls_of(src)
    assert [(t.simple_name, t.kind) for t in decls.types] == [("I", "interface"), ("E", "enum")]


def test_annotation_declaration_is_not_a_type_use():
    src = "public @interface Marker { String value(); }\nclass A { }"
    decls = decls_of(src)
    assert [t.simple_name for t in decls.types] == ["Marker", "A"]


def test_nested_types_have_chains():
    src = """\
class Outer {
    class Inner {
        class Deepest { }
    }
    static class Sibling { }
}
"""
    decls = decls_of(src)
    chains = [t.chain for t in decls.types]
    assert ["Outer"] in [list(c) for c in chains]
    assert ["Outer", "Inner"] in [list(c) for c in chains]
    assert ["Outer", "Inner", "Deepest"] in [list(c) for c in chains]
    assert ["Outer", "Sibling"] in [list(c) for c in chains]


def test_class_annotations_marker_and_value_forms():
    src = """\
import org.junit.runner.RunWith;
import org.junit.runners.Parameterized;

@Deprecated
@RunWith(Parameterized.class)
class T { }
"""
    t = decls_of(src).types[0]
    names = [a.name for a in t.annotations]
    assert names == ["Deprecated", "RunWith"]
    runwith = t.annotations[1]
    assert runwith.attrs == {"value": ["Parameterized.class"]}


def test_annotation_named_attrs_and_arrays():
    src = '@ImportResource(location = {"classpath:a.xml", "classpath:b.xml"})\nclass C { }'
    t = decls_of(src).types[0]
    anno = t.annotations[0]
    assert anno.name == "ImportResource"
    assert anno.attrs == {"location": ["classpath:a.xml", "classpath:b.xml"]}


def test_qualified_annotation_name_and_last_segment():
    src = "@Suite.SuiteClasses({CoreTest.class})\nclass AllTests { }"
    anno = decls_of(src).types[0].annotations[0]
    assert anno.name == "Suite.SuiteClasses"
    assert anno.last_segment() == "SuiteClasses"
    assert anno.attrs == {"value": ["CoreTest.class"]}


def test_annotation_survives_modifiers_before_class():
    src = "@Service\npublic final class S { }"
    t = decls_of(src).types[0]
    assert [a.name for a in t.annotations] == ["Service"]


def test_fields_with_multiple_declarators():
    src = "class A { private int x, y = 3; String name; }"
    members = members_of(src)
    assert [(f.name, f.type_name) for f in members.fields] == [
        ("x", "int"),
        ("y", "int"),
        ("name", "String"),
    ]


def test_fields_named_with_letter_numbers_and_currency_symbols():
    src = "class A { int Ⅷx; int £y; int a€‿b; }"
    members = members_of(src)
    assert [(f.name, f.type_name) for f in members.fields] == [
        ("Ⅷx", "int"),
        ("£y", "int"),
        ("a€‿b", "int"),
    ]


def test_field_array_suffixes():
    src = "class A { int[] xs; int ys[]; }"
    members = members_of(src)
    assert [(f.name, f.type_name) for f in members.fields] == [
        ("xs", "int[]"),
        ("ys", "int[]"),
    ]


def test_methods_names_returns_params():
    src = """\
class A {
    public void setFoo(String value) { this.foo = value; }
    List<Object[]> data() { return null; }
    int add(int a, int b) { return a + b; }
    private static java.util.Map<String, Integer> counts() { return null; }
}
"""
    members = members_of(src)
    got = [(m.name, m.return_type, [p.type_name for p in m.params]) for m in members.methods]
    assert got == [
        ("setFoo", "void", ["String"]),
        ("data", "List<Object[]>", []),
        ("add", "int", ["int", "int"]),
        ("counts", "java.util.Map<String, Integer>", []),
    ]


def test_qualified_return_type():
    src = "class A { public static junit.framework.Test suite() { return null; } }"
    m = members_of(src).methods[0]
    assert m.name == "suite"
    assert m.return_type == "junit.framework.Test"


def test_varargs_and_array_params():
    src = "class A { void f(String... parts) { } void g(int[] xs, String names[]) { } }"
    members = members_of(src)
    f, g = members.methods
    assert [p.type_name for p in f.params] == ["String..."]
    assert [(p.type_name, p.name) for p in g.params] == [("int[]", "xs"), ("String[]", "names")]


def test_param_annotations_and_final_dropped():
    src = "class A { void f(@Deprecated final String s, @SuppressWarnings(\"x\") int n) { } }"
    m = members_of(src).methods[0]
    assert [(p.type_name, p.name) for p in m.params] == [("String", "s"), ("int", "n")]


def test_qualified_and_parenthesised_param_annotations_dropped():
    src = (
        "class A { void f(@javax.annotation.Nullable String s, @org.x.Y(3) long q, "
        "final @a.b.C(x = {1, 2}) java.util.List<String> xs, @D final @e.F int[] n) { } }"
    )
    m = members_of(src).methods[0]
    assert [(p.type_name, p.name) for p in m.params] == [
        ("String", "s"),
        ("long", "q"),
        ("java.util.List<String>", "xs"),
        ("int[]", "n"),
    ]


def test_type_annotations_inside_member_types_are_dropped():
    src = (
        "class A {\n"
        "  List<@NonNull String> xs;\n"
        "  Map<@K({1, 2}) String, List<@a.b.V(x = \"}\") Integer>> m;\n"
        "  @Nullable List<@NonNull String> g(String @NonNull [] a, int @A [] @B [] b,"
        " String @C ... rest) { return null; }\n"
        "}\n"
    )
    members = members_of(src)
    assert [(f.name, f.type_name) for f in members.fields] == [
        ("xs", "List<String>"), ("m", "Map<String, List<Integer>>"),
    ]
    g = members.methods[0]
    assert (g.name, g.return_type) == ("g", "List<String>")
    assert [a.name for a in g.annotations] == ["Nullable"]
    assert [(p.type_name, p.name) for p in g.params] == [
        ("String[]", "a"), ("int[][]", "b"), ("String...", "rest"),
    ]


def test_generic_param_types_keep_their_commas():
    src = (
        "class A { void f(java.util.Map<String, Map<K, V>> o, int n) { } "
        "A(@Max(1 < 2) int a, List<List<Map<K, V>>> b, Map<String, Integer>... c) { } }"
    )
    members = members_of(src)
    assert [(p.type_name, p.name) for p in members.methods[0].params] == [
        ("java.util.Map<String, Map<K, V>>", "o"),
        ("int", "n"),
    ]
    assert [(p.type_name, p.name) for p in members.constructors[0].params] == [
        ("int", "a"),
        ("List<List<Map<K, V>>>", "b"),
        ("Map<String, Integer>...", "c"),
    ]


def test_members_are_items_owned_by_the_class():
    src = 'class M { int f; M() { getBean("a"); } void r() { getBean("b"); } }'
    toks = tokenize_java(src)
    raw = scan_declarations(toks).types[0]
    owner = owner_of(raw, "src/M.java")
    members = extract_members(toks, raw, owner)
    everything = members.fields + members.methods + members.constructors + members.call_sites
    assert len(everything) == 5
    assert all(item.owner is owner for item in everything)
    assert [(c.string_args, c.ordinal, c.file_path) for c in members.call_sites] == [
        (("a",), 0, "src/M.java"),
        (("b",), 1, "src/M.java"),
    ]


def test_constructors_are_separate_from_methods():
    src = """\
class Mailer {
    public Mailer(String host) { }
    public Mailer(String host, int port) { }
    public void send() { }
}
"""
    members = members_of(src)
    assert [len(c.params) for c in members.constructors] == [1, 2]
    assert [m.name for m in members.methods] == ["send"]


def test_member_annotations():
    src = """\
import org.junit.Test;
import org.junit.runners.Parameterized.Parameters;

class T {
    @Parameters
    public static Object[][] data() { return null; }

    @Test
    public void checks() { }

    @Deprecated
    private int old;
}
"""
    members = members_of(src)
    data, checks = members.methods
    assert [a.name for a in data.annotations] == ["Parameters"]
    assert [a.name for a in checks.annotations] == ["Test"]
    assert [a.name for a in members.fields[0].annotations] == ["Deprecated"]


def test_nested_type_members_stay_separate():
    src = """\
class Outer {
    int outerField;
    class Inner {
        int innerField;
        void innerMethod() { }
    }
    void outerMethod() { }
}
"""
    toks = tokenize_java(src)
    decls = scan_declarations(toks)
    outer = [t for t in decls.types if t.simple_name == "Outer"][0]
    inner = [t for t in decls.types if t.simple_name == "Inner"][0]
    outer_members = extract_members(toks, outer, owner_of(outer))
    inner_members = extract_members(toks, inner, owner_of(inner))
    assert [f.name for f in outer_members.fields] == ["outerField"]
    assert [m.name for m in outer_members.methods] == ["outerMethod"]
    assert [f.name for f in inner_members.fields] == ["innerField"]
    assert [m.name for m in inner_members.methods] == ["innerMethod"]


def test_enum_constants_skipped_but_members_kept():
    src = """\
enum Color {
    RED, GREEN, BLUE;

    private int code;

    public int code() { return code; }
}
"""
    members = members_of(src)
    assert [f.name for f in members.fields] == ["code"]
    assert [m.name for m in members.methods] == ["code"]


def test_interface_method_signatures():
    src = "interface Dao { void save(String row); int count(); }"
    members = members_of(src)
    assert [(m.name, m.return_type) for m in members.methods] == [
        ("save", "void"),
        ("count", "int"),
    ]


def test_call_site_string_argument():
    src = """\
class Main {
    void run() {
        ApplicationContext context = new ClassPathXmlApplicationContext("beans.xml");
        Object a = context.getBean("greeter");
    }
}
"""
    members = members_of(src)
    got = [(c.callee_name, c.string_args) for c in members.call_sites]
    assert got == [
        ("ClassPathXmlApplicationContext", ("beans.xml",)),
        ("getBean", ("greeter",)),
    ]


def test_call_site_class_literal_and_unknown_args():
    src = """\
class Main {
    void run() {
        Object a = ctx.getBean(NoticeService.class);
        Object b = ctx.getBean(com.acme.Greeter.class);
        Object c = ctx.getBean(beanName);
        Object d = ctx.getBean("x" + suffix);
    }
}
"""
    calls = members_of(src).call_sites
    assert [c.string_args for c in calls] == [
        ("NoticeService.class",),
        ("com.acme.Greeter.class",),
        (None,),
        (None,),
    ]


def test_call_site_multiple_args():
    src = 'class M { void r() { Object a = ctx.getBean("name", Greeter.class); } }'
    call = members_of(src).call_sites[0]
    assert call.string_args == ("name", "Greeter.class")


def test_calls_found_in_field_initializers_and_static_blocks():
    src = """\
class Holder {
    private static final Object CTX = new ClassPathXmlApplicationContext("app.xml");
    static {
        Object x = registry.getBean("early");
    }
}
"""
    calls = members_of(src).call_sites
    assert [(c.callee_name, c.string_args[0]) for c in calls] == [
        ("ClassPathXmlApplicationContext", "app.xml"),
        ("getBean", "early"),
    ]


def test_nested_watched_calls_both_found():
    src = 'class M { void r() { Object a = getBean(getBean("inner")); } }'
    calls = members_of(src).call_sites
    assert len(calls) == 2
    assert calls[0].string_args == (None,)
    assert calls[1].string_args == ("inner",)


def test_unwatched_calls_ignored():
    src = 'class M { void r() { Object a = new AnnotationConfigApplicationContext(AppCtx.class); } }'
    assert members_of(src).call_sites == ()


def test_call_line_numbers():
    src = 'class M {\n  void r() {\n    Object a = ctx.getBean("x");\n  }\n}'
    assert members_of(src).call_sites[0].line == 3


@pytest.mark.parametrize("header", [
    "record R(@A({1}) int x)",
    "class A<T extends @B({1}) X>",
    "class A implements I<@B({1}) X>",
])
def test_a_type_header_holding_braces_still_opens_a_type_body(header):
    texts = [text for _, text, _ in tokenize_java(f"{header} {{ void m() {{ f(); }} }}")]
    assert texts[-6:] == ["m", "(", ")", "{", "}", "}"]  # the body of m is skipped


@pytest.mark.parametrize("before", ["int x = 1;", "enum E { A, B; }", "enum E { A }"])
def test_only_initializers_and_enum_constants_need_balanced_bodies(before):
    # a body whose parentheses do not balance is skipped outside a field
    # initializer or an enum's constant list
    texts = [text for _, text, _ in tokenize_java(f"class A {{ {before} void m() {{ f(; }} }}")]
    assert texts[-4:] == [")", "{", "}", "}"]


def test_text_block_is_one_token():
    src = 'class M { String s = """\nline "one"\nline two\n"""; }'
    members = members_of(src)
    assert [f.name for f in members.fields] == ["s"]


def test_decode_java_string():
    assert decode_java_string('"plain"') == "plain"
    assert decode_java_string('"a\\"b"') == 'a"b'
    assert decode_java_string('"tab\\there"') == "tab\there"
    assert decode_java_string('"back\\\\slash"') == "back\\slash"
    assert decode_java_string('"uni\\u0041"') == "uniA"


@pytest.mark.parametrize("lexeme, value", [
    # octal escapes, up to three digits when the first is 0-3 (JLS 3.10.7)
    ('"\\101"', "A"),
    ('"\\012x"', "\nx"),
    ('"\\0"', "\0"),
    ('"\\400"', " 0"),
    ('"\\7777"', "\x3f77"),
    # \s is a space
    ('"a\\sb"', "a b"),
    # a Unicode escape may repeat its 'u' (JLS 3.3) ...
    ('"\\uuu0041"', "A"),
    # ... is translated before escape sequences ...
    ('"\\u005cn"', "\n"),
    ('"\\u005c\\u005c"', "\\"),
    # ... and only where an even number of backslashes precedes it
    ('"\\\\u0041"', "\\u0041"),
    ('"\\\\\\u0041"', "\\A"),
    # a backslash before any other character stands for it
    ('"\\q\\u12"', "qu12"),
    ('"' + r"\b\t\n\f\r\"\'\\" + '"', "\b\t\n\f\r\"'\\"),
])
def test_decode_java_string_follows_the_language_spec(lexeme, value):
    assert decode_java_string(lexeme) == value


def test_decoded_strings_reach_call_sites_and_annotations():
    src = 'class A { @Value("\\101\\sb") void m() { getBean("\\uuu0062\\145an"); } }'
    m = members_of(src).methods[0]
    assert m.annotations[0].attrs == {"value": ["A b"]}
    assert [c.string_args for c in members_of(src).call_sites] == [("bean",)]


def test_duplicate_member_names_all_recorded():
    src = "class A { void f() { } void f(int x) { } }"
    members = members_of(src)
    assert [(m.name, len(m.params)) for m in members.methods] == [("f", 0), ("f", 1)]


# -- records ----------------------------------------------------------------


RECORD_SOURCE = """package com.acme;

@Immutable
public record Cfg(@Value("${db.url}") String url, int port, String... tags) implements Marker {
    static int count = 0;

    Cfg {
        ctx.getBean("checked");
    }

    public String host() { return url; }

    record Inner(java.util.Map<String, Integer> m) {}
}
"""


def test_record_is_a_class_whose_components_are_fields():
    decls = decls_of(RECORD_SOURCE)
    assert [(t.chain, t.kind) for t in decls.types] == [(("Cfg",), "record"), (("Cfg", "Inner"), "record")]
    cfg = decls.types[0]
    assert cfg.supertype_names == ("Marker",)
    assert [a.name for a in cfg.annotations] == ["Immutable"]
    assert cfg.line == 4
    m = members_of(RECORD_SOURCE)
    assert [(f.name, f.type_name, [a.name for a in f.annotations], f.line) for f in m.fields] == [
        ("url", "String", ["Value"], 4), ("port", "int", [], 4), ("tags", "String[]", [], 4),
        ("count", "int", [], 5),
    ]
    assert [x.name for x in m.methods] == ["host"]


def test_record_canonical_constructor_and_compact_form():
    m = members_of(RECORD_SOURCE)
    # the compact form `Cfg { ... }` is no method, and declares no other constructor
    assert [(c.line, [(p.type_name, p.name) for p in c.params]) for c in m.constructors] == [
        (4, [("String", "url"), ("int", "port"), ("String...", "tags")]),
    ]
    assert [(c.callee_name, c.string_args, c.line) for c in m.call_sites] == [("getBean", ("checked",), 8)]
    inner = members_of(RECORD_SOURCE, 1)
    assert [(f.name, f.type_name) for f in inner.fields] == [("m", "java.util.Map<String, Integer>")]
    assert [len(c.params) for c in inner.constructors] == [1]


def test_explicit_canonical_constructor_is_not_repeated():
    src = (
        "record Point(int x, int y) {\n"
        "    Point(int x, int y) { this.x = x; this.y = y; }\n"
        "    Point(int both) { this(both, both); }\n"
        "}\n"
    )
    m = members_of(src)
    assert [(c.line, [p.type_name for p in c.params]) for c in m.constructors] == [
        (2, ["int", "int"]), (3, ["int"]),
    ]


def test_nested_record_is_not_a_method_of_its_outer_class():
    src = (
        "class Outer {\n"
        "    record Inner<T>(@A({1, 2}) T value) implements I { void m() { getBean(\"in\"); } }\n"
        "    int after;\n"
        "}\n"
    )
    decls = decls_of(src)
    assert [t.chain for t in decls.types] == [("Outer",), ("Outer", "Inner")]
    outer = members_of(src)
    assert outer.methods == () and outer.call_sites == ()
    assert [f.name for f in outer.fields] == ["after"]
    inner = members_of(src, 1)
    assert [(f.name, f.type_name, [a.attrs for a in f.annotations]) for f in inner.fields] == [
        ("value", "T", [{"value": ["1", "2"]}]),
    ]
    assert [c.string_args for c in inner.call_sites] == [("in",)]


def test_record_not_followed_by_a_name_stays_an_identifier():
    src = (
        "class Log {\n"
        "    String record;\n"
        "    void record(int entry) { record.trim(); }\n"
        "    Object other = record;\n"
        "}\n"
    )
    assert [t.simple_name for t in decls_of(src).types] == ["Log"]
    m = members_of(src)
    assert [(f.name, f.type_name) for f in m.fields] == [("record", "String"), ("other", "Object")]
    assert [(x.name, x.return_type) for x in m.methods] == [("record", "void")]
