"""Hypothesis strategy for Java compilation units.

java_sources() draws one source file: a package clause, imports, and
classes, interfaces, enums and annotation types (nested too), with the
constructs a member-body skipper must get right:

- braces inside strings, chars, comments and text blocks;
- lambdas, anonymous classes and local classes;
- enum constants with arguments and bodies;
- array initializers, and annotations with array arguments;
- watched calls (getBean, ClassPathXmlApplicationContext) nested in other
  calls, in field initializers and behind comments, and names that only
  look like them;
- unterminated strings and chars, and comments and text blocks left open
  to the end of the text, in a body or anywhere else;
- blocks where a member walk reads on to a ';' or a '>' of its own: after
  a second declarator or a name it cannot read, after a '<' at member
  level, and in a constructor whose name is not its class's.

The sources hold no `record` declaration: tests/reference_javasrc.py,
which they are compared against, reads `record` as a plain identifier.
"""

from hypothesis import strategies as st

NAMES = ["A", "Bean", "Cfg", "Svc", "Holder", "Widget", "É", "Ünit"]
TYPES = ["int", "String", "long[]", "List<String>", "Map<String, List<Integer>>",
         "java.util.Optional<? extends Number>", "Foo.Bar", "T"]
ANNOTATIONS = [
    "@Override", "@Deprecated", "@Autowired", "@javax.inject.Named(\"n\")",
    "@SuppressWarnings({\"a\", \"b{\"})", "@RunWith(Suite.class)",
    "@Suite.SuiteClasses({A.class, B.class})", "@Value(value = \"${x}\", other = {1, 2})",
    "@A(@B({\"}\"}))", "@Target({})",
]
# Literals and comments whose braces and names must not be read as code.
NOISE = [
    '"{"', '"}"', "'{'", "'}'", '"a\\"{"', "'\\''", '"getBean(\\"x\\")"', "/* { */",
    "// } getBean(\"c\")\n", '"""\n  { text block }\n  getBean("t")\n  """',
    "/** } */", '"\\\\"', "'\"'", '"\'"', "/* getBean( */",
]
# A string or char literal left open runs to its line end, here taking a
# brace or a parenthesis with it; the last one is a string whose line break
# is escaped.
OPEN_LITERALS = ['"open { \n', "'{ \n", 'wrap("open ) ;\n', 'x = y) + "( ;\n', "a[0 = '] ;\n",
                 '"\\\n{"']
# A comment or text block left open ends the stream, so java_sources cuts
# the source after the first one: no later '*/' or '"""' may close it.
STREAM_ENDERS = ["/* never closed {", '"""never closed {', "// no line end {"]
_CUT = "\x00"
# Members a compiler rejects, as code under edit holds them; after each, the
# member walk reads on to a ';' (or a '>') inside or past a block.
UNREADABLE_MEMBERS = ["int a = 1, { x; }", "int a b { x(); }", "< { a > b; }",
                      'Misnamed(int x) { a(); getBean("y"); }']
ANNOTATION_DEFAULTS = ["1", "{}", '{"a", "b"}', '{getBean("d")}']
CALL_ARGS = ['"one"', "Leaf.class", "com.acme.Two.class", "name", '"a" + "b"', "1",
             'new String[] {"x"}', "() -> { return 1; }", "x -> x", '"}"', "'{'",
             "new Object() { int f() { return 1; } }"]


@st.composite
def watched_calls(draw, depth=0):
    """A watched call; its arguments may hold more calls."""
    callee = draw(st.sampled_from(["getBean", "ctx.getBean", "ClassPathXmlApplicationContext",
                                   "new ClassPathXmlApplicationContext", "this.getBean"]))
    args = draw(st.lists(call_args(depth + 1), max_size=3))
    gap = draw(st.sampled_from(["", " ", " /* c */ ", "\n  "]))
    return f"{callee}{gap}({', '.join(args)})"


@st.composite
def call_args(draw, depth):
    if depth < 3 and draw(st.integers(0, 3)) == 0:
        return draw(watched_calls(depth))
    if depth < 3 and draw(st.integers(0, 4)) == 0:
        inner = draw(call_args(depth + 1))
        return f"{draw(st.sampled_from(['wrap', 'a.b', 'mygetBean', 'getBeanFactory']))}({inner})"
    return draw(st.sampled_from(CALL_ARGS))


@st.composite
def expressions(draw, depth=0):
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(watched_calls())
    if choice == 1:
        return f"foo({draw(expressions(depth + 1)) if depth < 2 else '1'}, {draw(watched_calls())})"
    if choice == 2:
        return draw(st.sampled_from(NOISE[:3] + ['"x"', "'c'"]))
    if choice == 3 and depth < 2:
        return f"() -> {{ {draw(statements(depth + 1))} }}"
    if choice == 4 and depth < 2:
        return f"new Runnable() {{ public void run() {{ {draw(statements(depth + 1))} }} }}"
    if choice == 5:
        return "a < b ? c : d"
    if choice == 6:
        return "x[0] + y.z(1, 2)"
    return draw(st.sampled_from(["1", "null", "this", "Foo.class", "other.getBeanFactory()",
                                 "getBeanNames()", "mygetBean(\"no\")"]))


@st.composite
def statements(draw, depth=0):
    """A few statements of a method body, initializer or lambda."""
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        choice = draw(st.integers(0, 13))
        if choice == 0:
            parts.append(f"Object v = {draw(expressions(depth))};")
        elif choice == 1:
            parts.append(f"{draw(watched_calls())};")
        elif choice == 2 and depth < 3:
            parts.append(f"if (a) {{ {draw(statements(depth + 1))} }} else {{ {draw(statements(depth + 1))} }}")
        elif choice == 3 and depth < 2:
            parts.append(f"class Local{depth} {{ void m() {{ {draw(statements(depth + 1))} }} }}")
        elif choice == 4:
            parts.append(draw(st.sampled_from(NOISE)))
        elif choice == 5 and depth < 2:
            parts.append(f"run(() -> {{ {draw(statements(depth + 1))} }});")
        elif choice == 6 and depth < 2:
            body = draw(statements(depth + 1))
            parts.append(f"Object o = new Object() {{ @Override public String toString() {{ {body} return \"\"; }} }};")
        elif choice == 7:
            parts.append("int[][] grid = {{1, 2}, {3}};")
        elif choice == 8:
            parts.append("for (int i = 0; i < n; i++) { total += i; }")
        elif choice == 9:
            parts.append("@SuppressWarnings(\"unused\") int local = 0;")
        elif choice == 10:
            parts.append("String s = switch (k) { case 1 -> \"{\"; default -> \"}\"; };")
        elif choice == 11:
            parts.append(draw(st.sampled_from(OPEN_LITERALS + [e + _CUT for e in STREAM_ENDERS])))
        elif choice == 12:
            parts.append("interface LocalI { void x(); } enum LocalE { P, Q }")
        else:
            parts.append("return;")
    return " ".join(parts)


@st.composite
def annotations(draw):
    return " ".join(draw(st.lists(st.sampled_from(ANNOTATIONS), max_size=2)))


@st.composite
def params(draw):
    out = []
    for k in range(draw(st.integers(0, 3))):
        anno = draw(st.sampled_from(["", "@Named(\"p\") ", "final ", "@A({1, 2}) "]))
        out.append(f"{anno}{draw(st.sampled_from(TYPES))} p{k}")
    if out and draw(st.booleans()):
        out[-1] = f"String... rest"
    return ", ".join(out)


@st.composite
def members(draw, cls, kind, depth):
    """One member of a type named cls."""
    annos = draw(annotations())
    mods = draw(st.sampled_from(["", "public ", "private static final ", "protected ", "static "]))
    choice = draw(st.integers(0, 11))
    if kind == "@interface":
        default = draw(st.sampled_from(ANNOTATION_DEFAULTS))
        return f"{annos} {draw(st.sampled_from(TYPES))} value() default {default};"
    if choice == 0:
        return f"{annos} {mods}{draw(st.sampled_from(TYPES))} f{depth} = {draw(expressions())};"
    if choice == 1:
        return f"{annos} {mods}int[] arr = {{1, 2, 3}}, other, more = {{}};"
    if choice == 2:
        throws = draw(st.sampled_from(["", " throws java.io.IOException, E"]))
        return f"{annos} {mods}<T> {draw(st.sampled_from(TYPES))} m{depth}({draw(params())}){throws} {{ {draw(statements())} }}"
    if choice == 3 and kind != "interface":
        return f"{annos} {mods.replace('static ', '')}{cls}({draw(params())}) {{ {draw(statements())} }}"
    if choice == 4 and kind != "interface":
        return f"{draw(st.sampled_from(['static ', '']))}{{ {draw(statements())} }}"
    if choice == 5 and depth < 2:
        return draw(type_decls(depth + 1))
    if choice == 6:
        return f"{annos} abstract void a{depth}({draw(params())});"
    if choice == 7:
        return draw(st.sampled_from(NOISE))
    if choice == 8:
        return f"Runnable r{depth} = () -> {{ {draw(statements())} }};"
    if choice == 9:
        return f"Object anon = new Object() {{ void x() {{ {draw(statements())} }} }};"
    if choice == 11:
        return draw(st.sampled_from(UNREADABLE_MEMBERS))
    return f"{annos} {mods}String s{depth} = \"{{\" + '}}' + {draw(watched_calls())};"


@st.composite
def type_decls(draw, depth=0):
    kind = draw(st.sampled_from(["class", "interface", "enum", "@interface", "class"]))
    name = draw(st.sampled_from(NAMES)) + str(depth)
    generics = draw(st.sampled_from(["", "<T>", "<K, V extends Comparable<V>>"])) if kind in ("class", "interface") else ""
    supers = ""
    if kind == "class":
        supers = draw(st.sampled_from(["", " extends Base<T>", " implements I, J<String>",
                                       " extends B implements C", " permits X, Y"]))
    elif kind == "interface":
        supers = draw(st.sampled_from(["", " extends I, Comparable<String>"]))
    elif kind == "enum":
        supers = draw(st.sampled_from(["", " implements I"]))
    body = []
    if kind == "enum":
        consts = []
        for k in range(draw(st.integers(0, 3))):
            const = f"C{k}"
            if draw(st.booleans()):
                const += f"({draw(call_args(1))})"
            if draw(st.integers(0, 2)) == 0:
                const += f" {{ void m() {{ {draw(statements())} }} }}"
            consts.append(const)
        body.append(", ".join(consts) + draw(st.sampled_from([";", ",;", ""])))
    body.extend(draw(st.lists(members(name, kind, depth), max_size=5)))
    if depth == 0 and draw(st.integers(0, 5)) == 0:
        body.append(draw(st.sampled_from(OPEN_LITERALS + [e + _CUT for e in STREAM_ENDERS])))
    annos = draw(annotations())
    mods = draw(st.sampled_from(["", "public ", "public final ", "abstract ", "static "]))
    sep = draw(st.sampled_from(["\n", " "]))
    return f"{annos} {mods}{kind} {name}{generics}{supers} {{{sep}" + sep.join(body) + f"{sep}}}"


@st.composite
def java_sources(draw):
    """One compilation unit."""
    parts = []
    if draw(st.booleans()):
        parts.append(f"package com.{draw(st.sampled_from(['acme', 'x.y']))};")
    parts.extend(draw(st.lists(st.sampled_from(
        ["import java.util.List;", "import static org.junit.Assert.*;", "import a.b.C;"]), max_size=2)))
    parts.extend(draw(st.lists(type_decls(), min_size=1, max_size=3)))
    if draw(st.integers(0, 6)) == 0:
        parts.append(draw(st.sampled_from(OPEN_LITERALS + [e + _CUT for e in STREAM_ENDERS])))
    text = "\n".join(parts) + "\n"
    return text.split(_CUT, 1)[0]
