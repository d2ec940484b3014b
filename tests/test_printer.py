from pathlib import Path

from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.rulepack import default_rules_dir
from rsl_printer import format_exp, format_rule, structurally_equal


def round_trips(source):
    first = parse_rule(source)
    printed = format_rule(first)
    second = parse_rule(printed)
    return structurally_equal(first, second)


def test_round_trip_simple_rule():
    assert round_trips('Rule a { String x = getName(y); }')


def test_round_trip_every_shipped_rule():
    for path in sorted(default_rules_dir().glob("*.rsl")):
        source = path.read_text()
        assert round_trips(source), path.name


def test_printed_shape():
    src = 'Rule t { for (<bean> b in getElms(x, "bean")) { assert (isEmpty(b)) { msg("bad"); } } }'
    printed = format_rule(parse_rule(src))
    assert printed == (
        "Rule t {\n"
        '  for (<bean> b in getElms(x, "bean")) {\n'
        "    assert (isEmpty(b)) {\n"
        '      msg("bad");\n'
        "    }\n"
        "  }\n"
        "}\n"
    )


def test_string_escapes_survive_round_trip():
    src = 'Rule t { String x = join("a\\"b", "c\\\\d"); }'
    assert round_trips(src)
    printed = format_rule(parse_rule(src))
    assert '"a\\"b"' in printed
    assert '"c\\\\d"' in printed


def test_right_associative_chains_keep_shape():
    # right-leaning chain prints without parens
    src = "Rule t { if (isEmpty(a) OR isEmpty(b) OR isEmpty(c)) { String q = getName(z); } }"
    rule = parse_rule(src)
    assert "(isEmpty(a) OR isEmpty(b) OR isEmpty(c))" in format_rule(rule)
    assert round_trips(src)


def test_left_nested_or_keeps_parens():
    # a left-leaning tree must print parenthesized or reparsing would change it
    leaf = parse_rule("Rule t { if (isEmpty(a)) { String q = getName(z); } }").body[0].cond
    span = leaf.span
    left = ast.Or(leaf, leaf, span)
    tree = ast.Or(left, leaf, span)
    text = format_exp(tree)
    assert text == "(isEmpty(a) OR isEmpty(a)) OR isEmpty(a)"
    # the defensive parens reparse as a Paren node, so the printed form is
    # the fixpoint: reparsing and reprinting yields the same text
    reparsed = parse_rule("Rule t { if (%s) { String q = getName(z); } }" % text).body[0].cond
    assert isinstance(reparsed, ast.Or)
    assert isinstance(reparsed.left, ast.Paren)
    assert format_exp(reparsed) == text


def test_mixed_precedence_round_trip():
    cases = [
        "NOT isEmpty(a)",
        "NOT (isEmpty(a) AND isEmpty(b))",
        "isEmpty(a) AND (isEmpty(b) OR isEmpty(c))",
        "(isEmpty(a) OR isEmpty(b)) AND NOT isEmpty(c)",
        'getName(m) == "x" OR exists (method m in getMethods(c)) (hasAnnotation(m, "Test"))',
    ]
    for cond in cases:
        src = "Rule t { if (%s) { String q = getName(z); } }" % cond
        assert round_trips(src), cond


def test_exists_prints_both_clauses():
    src = 'Rule t { if (exists (method m in getMethods(c)) (getName(m) == "run")) { String q = getName(z); } }'
    printed = format_rule(parse_rule(src))
    assert 'exists (method m in getMethods(c)) (getName(m) == "run")' in printed
    assert round_trips(src)
