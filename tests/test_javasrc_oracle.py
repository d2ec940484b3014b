"""The declaration-level front end reads what the full-token one read.

mecheck.model.javasrc skips a member body that holds no annotation and
no watched callee's name.  tests/reference_javasrc.py is the front end
as it was before, tokenizing everything.  Given the same source, both
must find the same package, imports and types, and the same fields,
methods, constructors and call sites, with the same annotations, lines
and ordinals; a built model must hold the same classes and warnings.
"""

import os
from pathlib import Path

import pytest
import reference_javasrc
from benchgen import BENCH_SEED, load_bench_gen, write_workload
from hypothesis import HealthCheck, example, given, settings
from javagen import java_sources

from mecheck.model import javasrc, project
from mecheck.model.items import ClassItem

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def annos(annotations):
    return [(a.name, a.attrs, a.line) for a in annotations]


def params(ps):
    return [(p.type_name, p.name) for p in ps]


def members_view(m):
    return (
        [(f.name, f.type_name, annos(f.annotations), f.line) for f in m.fields],
        [(x.name, x.return_type, params(x.params), annos(x.annotations), x.line) for x in m.methods],
        [(params(c.params), annos(c.annotations), c.line) for c in m.constructors],
        [(c.callee_name, c.string_args, c.line, c.ordinal) for c in m.call_sites],
    )


def front_end_view(module, text):
    """What one front end reads from one source file."""
    toks = module.tokenize_java(text)
    decls = module.scan_declarations(toks)
    types = []
    for raw in decls.types:
        owner = ClassItem(raw.simple_name, raw.simple_name, raw.kind, raw.supertype_names,
                          raw.annotations, "F.java", raw.line)
        types.append((raw.chain, raw.kind, raw.supertype_names, annos(raw.annotations), raw.line,
                      members_view(module.extract_members(toks, raw, owner))))
    return decls.package, decls.imports, types


def model_view(model):
    classes = [
        (c.fqn, c.kind, c.supertype_names, annos(c.annotations), c.file_path, c.line,
         members_view(c.members()))
        for c in model.classes
    ]
    return classes, [(w.path, w.message) for w in model.warnings]


def assert_same_model(root, monkeypatch):
    new = model_view(project.build_model(root))
    with monkeypatch.context() as patch:
        patch.setattr(project, "javasrc", reference_javasrc)
        old = model_view(project.build_model(root))
    assert new == old


def java_files(root):
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".java"):
                yield Path(dirpath) / name


def fixture_projects():
    return sorted(p.parent for p in FIXTURES.glob("**/expected.json"))


@pytest.mark.parametrize("root", fixture_projects(), ids=lambda p: str(p.relative_to(FIXTURES)))
def test_fixture_models_match_reference(root, monkeypatch):
    assert_same_model(root, monkeypatch)


def test_fixture_files_match_reference():
    files = list(java_files(FIXTURES))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert front_end_view(javasrc, text) == front_end_view(reference_javasrc, text), path


@pytest.mark.parametrize("workload", ["java-wide", "getbean-lookups", "bean-props"])
def test_bench_workload_models_match_reference(workload, tmp_path, monkeypatch):
    assert_same_model(write_workload(workload, tmp_path / "project"), monkeypatch)


# The tokens tokenize_java keeps for each seed-7 workload, summed over its
# .java files, as the benchmark's javasrc.tokens reads them: what a body
# skip leaves.  From 190,058 / 51,386 / 37,328 (java-wide / getbean-lookups
# / bean-props) when a skipped body kept its watched calls: a body holding
# a watched callee's name is now lexed in full, +284 / +3,684 / +68.  With
# no body skipped they would be 401,570 / 106,052 / 75,592 (the reference
# tokenizer's counts), so a change that stops skipping bodies fails here.
WORKLOAD_TOKENS = {
    "java-wide": 190_342,
    "getbean-lookups": 55_070,
    "bean-props": 37_396,
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_TOKENS))
def test_bench_workload_kept_tokens(workload):
    files, _ = load_bench_gen().generate(workload, BENCH_SEED)
    kept = sum(len(javasrc.tokenize_java(text)) for path, text in files.items()
               if path.endswith(".java"))
    assert kept == WORKLOAD_TOKENS[workload]


@pytest.mark.parametrize("body", [
    "@SuppressWarnings(\"x\") int y = 0;",  # an annotation
    "getBean(new Object() { );",  # a call whose braces do not balance
    "getBean(a[);",  # nor its brackets
    # watched calls, nested, after a '{' in a string
    pytest.param("String s = \"{\" + x;\n    wrap(ctx.getBean(\"a\", getBean(B.class)), 2);\n  ",
                 id="nested"),
    "Supplier<Object> f = this::getBean;",  # a callee name that is no call
    # callee names next to a non-ASCII identifier character
    "égetBean(\"x\");",
    "getBean£(\"x\");",
])
def test_bodies_that_could_change_the_parse_are_tokenized_in_full(body):
    """A member body that holds an annotation or a watched callee's name is
    tokenized exactly as the reference tokenizer does it."""
    text = f"class A {{\n  void m() {{ {body} }}\n}}\n"
    import reference_tokenizer

    assert javasrc.tokenize_java(text) == \
        reference_tokenizer.tokenize(text)


def test_unbalanced_field_initializer_block_is_tokenized_in_full():
    text = "class A {\n  Runnable r = () -> { foo(\"x);\n  };\n  int g;\n}\n"
    view = front_end_view(javasrc, text)
    assert view == front_end_view(reference_javasrc, text)
    assert "(" in [tok[1] for tok in javasrc.tokenize_java(text)]


# Each was once misread: a '{' was skipped as a member body while
# extract_members was still inside a field initializer or an enum's
# constant list, which then no longer ended where it does in the full
# token stream.  Fields o, h and b were lost, and E gained a field g.
UNCLOSED_BRACKET_INITIALIZER = "class A{e r={[};{)},o"
OVERCLOSED_INITIALIZER = "class B{w(}class A{e f=y);e g={1,2};e h;}"
OVERCLOSED_BY_ANNOTATION = "class A{e f=@A(]) x,{a,b};}"
TYPE_IN_ENUM_CONSTANTS = "enum E{class B{B(){w(}}e f;e g;}"

# Each was once misread when a body was skipped that the member walk reads
# as a flat token run: after a declarator it cannot read, it skips to the
# next ';', which was inside the skipped body, or after a '<' at member
# level to the next '>', which was past it.  Fields b, f, f and z were lost.
FIELD_AFTER_A_SECOND_DECLARATOR_BLOCK = "class A { int a = 1, { x; } int b; }"
FIELD_AFTER_A_BLOCK_AFTER_A_NAME = "class A { int a b { x(); } int f; }"
FIELD_AFTER_A_BLOCK_IN_ANGLES = "class A { < { a > b; } int f; }"
FIELD_AFTER_A_MISNAMED_CONSTRUCTOR = 'class A { B(int x) { a(); getBean("y"); } int z; }'


@pytest.mark.parametrize("text", [
    # a '{' inside a member's parentheses
    "class A {\n  void m(int x { a, b }) { }\n  int after;\n}\n",
    # an annotation pending before a block and after it
    "class A {\n  @Deprecated { x(); }\n  class B { }\n}\n",
    "class A {\n  void m() { }\n  @Deprecated\n}\nclass B { }\n",
    # an annotation pending across a package clause, or with no name
    "@Deprecated package p;\n{ x(); }\nclass B { }\n",
    "class A {\n  @(x) { y(); }\n  class B { }\n}\n",
    # an annotation whose parentheses never close
    "class A {\n  @Named(\"open) void m() { x(); }\n  void n() { y()); }\n  int f;\n}\n",
    # an enum constant body whose parentheses do not balance
    "enum E {\n  A { void f() { g(1; } }, B;\n  int x;\n  void m() { getBean(\"b\"); }\n}\n",
    # an import runs to its ';', braces and all
    "import x { a; }\nclass B { void m() { getBean(\"b\"); } }\n",
    "import x { a { b; } }\nclass B { void m() { getBean(\"b\"); } }\n",
    "package p { class Q { void m() { } } }\nclass R { }\n",
    # callee names inside longer identifiers, next to non-ASCII characters
    "class A {\n  void m() { ½getBean(\"x\"); £getBean(\"y\"); getBean£(\"z\"); x‿getBean(\"w\"); }\n}\n",
    # a field initializer whose '[' stays open past a ';' at member level
    UNCLOSED_BRACKET_INITIALIZER,
    # a field initializer closing more than it opened, after a '(' left open
    OVERCLOSED_INITIALIZER,
    # ... or in an annotation's arguments
    OVERCLOSED_BY_ANNOTATION,
    # a type declared in an enum's constant list, whose member body opens a '('
    TYPE_IN_ENUM_CONSTANTS,
    # a block where the member walk reads on to a ';' or '>'
    FIELD_AFTER_A_SECOND_DECLARATOR_BLOCK,
    FIELD_AFTER_A_BLOCK_AFTER_A_NAME,
    FIELD_AFTER_A_BLOCK_IN_ANGLES,
    FIELD_AFTER_A_MISNAMED_CONSTRUCTOR,
    # a nested type whose annotation arguments or header hold braces that
    # do not balance: the member walk of the type around it, which counts
    # them, ends it before or after the '}' the declaration scan ends it at
    "class O { class X { void m() { a(); } @A(}) int f; } int g; }",
    "class O { class X { @A(}) int f; } int g; }",
    "class O { class X { void m() { a(); } @A({) int f; } int g; } int h; }",
    "class O { class X<T extends @B({) Y> { void m() { } } int g; } int h; }",
])
def test_malformed_declarations_match_reference(text):
    assert front_end_view(javasrc, text) == front_end_view(reference_javasrc, text)


@settings(max_examples=max(400, settings().max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(java_sources())
@example(UNCLOSED_BRACKET_INITIALIZER)
@example(OVERCLOSED_INITIALIZER)
@example(OVERCLOSED_BY_ANNOTATION)
@example(TYPE_IN_ENUM_CONSTANTS)
@example(FIELD_AFTER_A_SECOND_DECLARATOR_BLOCK)
@example(FIELD_AFTER_A_BLOCK_AFTER_A_NAME)
@example(FIELD_AFTER_A_BLOCK_IN_ANGLES)
@example(FIELD_AFTER_A_MISNAMED_CONSTRUCTOR)
def test_generated_sources_match_reference(text):
    assert front_end_view(javasrc, text) == front_end_view(reference_javasrc, text)
