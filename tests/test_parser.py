import pytest

from mecheck.rsl import ast
from mecheck.rsl.parser import MAX_NESTING, ArityMismatch, RslSyntaxError, parse_rule
from rsl_printer import structurally_equal

RULE = """\
Rule method-exists {
  for (file x in getXMLs()) {
    for (<bean> b in getElms(x, "bean")) {
      String cn = getAttr(b, "class");
      if (classExists(cn)) {
        class c = locateClassFQN(cn);
        for (String m in getAttrs(b, "*method")) {
          assert (exists (method md in getMethods(c)) (getName(md) == m)) {
            msg("method %s missing from %s", m, cn);
          }
        }
      }
    }
  }
}
"""


def test_full_rule_structure():
    rule = parse_rule(RULE)
    assert rule.name == "method-exists"
    assert len(rule.body) == 1
    outer = rule.body[0]
    assert isinstance(outer, ast.ForStmt)
    assert outer.decl_type == ast.TypeTag("file")
    assert outer.var == "x"
    assert isinstance(outer.container, ast.FunctionCall)
    assert outer.container.name == "getXMLs"
    assert outer.container.args == ()

    inner = outer.body[0]
    assert isinstance(inner, ast.ForStmt)
    assert inner.decl_type == ast.TypeTag(ast.ELEMENT, "bean")
    assert inner.var == "b"

    decl = inner.body[0]
    assert isinstance(decl, ast.DeclStmt)
    assert decl.decl_type == ast.TypeTag("String")
    assert decl.var == "cn"

    guard = inner.body[1]
    assert isinstance(guard, ast.IfStmt)
    assert isinstance(guard.cond, ast.FunctionCall)

    for_attrs = guard.body[1]
    assert isinstance(for_attrs, ast.ForStmt)
    check = for_attrs.body[0]
    assert isinstance(check, ast.AssertStmt)
    assert isinstance(check.cond, ast.Exists)
    assert check.cond.decl_type == ast.TypeTag("method")
    assert isinstance(check.cond.predicate, ast.Eq)
    assert check.message.template == "method %s missing from %s"
    assert len(check.message.args) == 2


def test_rule_name_may_contain_hyphens_and_digits():
    rule = parse_rule('Rule r1-xml-path-check { String a = join("x", "y"); }')
    assert rule.name == "r1-xml-path-check"


def test_empty_body_rejected():
    with pytest.raises(RslSyntaxError) as exc:
        parse_rule("Rule empty { }")
    assert "at least one statement" in str(exc.value)


def test_trailing_tokens_rejected():
    with pytest.raises(RslSyntaxError):
        parse_rule('Rule a { String x = getName(y); } Rule b { String z = getName(w); }')


def test_missing_semicolon_rejected():
    with pytest.raises(RslSyntaxError) as exc:
        parse_rule("Rule a { String x = getName(y) }")
    assert exc.value.expected == "';'"


def test_else_clause_rejected():
    src = """\
Rule a {
  if (isEmpty(x)) {
    String y = getName(z);
  } else {
    String w = getName(z);
  }
}
"""
    with pytest.raises(RslSyntaxError):
        parse_rule(src)


def parse_cond(cond):
    src = "Rule t { if (%s) { String q = getName(z); } }" % cond
    rule = parse_rule(src)
    return rule.body[0].cond


def test_precedence_not_binds_tightest():
    cond = parse_cond("NOT isEmpty(a) AND isEmpty(b)")
    assert isinstance(cond, ast.And)
    assert isinstance(cond.left, ast.Not)


def test_precedence_and_over_or():
    cond = parse_cond("isEmpty(a) OR isEmpty(b) AND isEmpty(c)")
    assert isinstance(cond, ast.Or)
    assert isinstance(cond.right, ast.And)
    cond = parse_cond("isEmpty(a) AND isEmpty(b) OR isEmpty(c)")
    assert isinstance(cond, ast.Or)
    assert isinstance(cond.left, ast.And)


def test_same_level_chains_associate_right():
    cond = parse_cond("isEmpty(a) OR isEmpty(b) OR isEmpty(c)")
    assert isinstance(cond, ast.Or)
    assert isinstance(cond.left, ast.FunctionCall)
    assert isinstance(cond.right, ast.Or)

    cond = parse_cond("isEmpty(a) AND isEmpty(b) AND isEmpty(c)")
    assert isinstance(cond, ast.And)
    assert isinstance(cond.right, ast.And)


def test_double_not():
    cond = parse_cond("NOT NOT isEmpty(a)")
    assert isinstance(cond, ast.Not)
    assert isinstance(cond.operand, ast.Not)


def test_parens_override_precedence():
    cond = parse_cond("(isEmpty(a) OR isEmpty(b)) AND isEmpty(c)")
    assert isinstance(cond, ast.And)
    assert isinstance(cond.left, ast.Paren)
    assert isinstance(cond.left.inner, ast.Or)


def test_eq_requires_call_on_left():
    cond = parse_cond('getName(m) == "init"')
    assert isinstance(cond, ast.Eq)
    assert cond.lhs.name == "getName"
    # a bare identifier on the left of == does not parse as Eq
    with pytest.raises(RslSyntaxError):
        parse_cond('m == "init"')


def test_eq_rhs_may_be_call():
    cond = parse_cond("getName(m) == getName(n)")
    assert isinstance(cond, ast.Eq)
    assert isinstance(cond.rhs, ast.FunctionCall)


def test_exists_expression():
    cond = parse_cond("exists (method m in getMethods(c)) (hasAnnotation(m, \"Test\"))")
    assert isinstance(cond, ast.Exists)
    assert cond.var == "m"
    assert cond.decl_type == ast.TypeTag("method")
    assert isinstance(cond.predicate, ast.FunctionCall)


def test_call_with_no_args():
    cond = parse_cond("isEmpty(getXMLs())")
    assert cond.args[0].name == "getXMLs"
    assert cond.args[0].args == ()


def test_literals():
    rule = parse_rule('Rule lits { String a = substring(s, 0, 3); }')
    call = rule.body[0].init
    assert call.args[1] == ast.Literal(0, "int", call.args[1].span)
    assert call.args[2] == ast.Literal(3, "int", call.args[2].span)


def test_msg_arity_mismatch_too_few_args():
    src = 'Rule a { assert (isEmpty(x)) { msg("%s and %s", x); } }'
    with pytest.raises(ArityMismatch) as exc:
        parse_rule(src)
    assert exc.value.placeholders == 2
    assert exc.value.arg_count == 1


def test_msg_arity_mismatch_too_many_args():
    src = 'Rule a { assert (isEmpty(x)) { msg("none", x); } }'
    with pytest.raises(ArityMismatch) as exc:
        parse_rule(src)
    assert exc.value.placeholders == 0
    assert exc.value.arg_count == 1


def test_msg_template_must_be_string():
    src = "Rule a { assert (isEmpty(x)) { msg(x); } }"
    with pytest.raises(RslSyntaxError):
        parse_rule(src)


def test_syntax_error_carries_position():
    with pytest.raises(RslSyntaxError) as exc:
        parse_rule("Rule a {\n  for x in getXMLs()) { }\n}")
    assert exc.value.line == 2
    assert exc.value.column == 7


def test_spans_cover_statements():
    rule = parse_rule(RULE)
    outer = rule.body[0]
    assert outer.span.line == 2
    assert outer.span.column == 3
    assert rule.span.line == 1


def test_structurally_equal_ignores_spans():
    a = parse_rule("Rule t { String x = getName(y); }")
    b = parse_rule("Rule t {\n  String x =\n      getName(y);\n}")
    assert structurally_equal(a, b)
    c = parse_rule("Rule t { String x = getFQN(y); }")
    assert not structurally_equal(a, c)


def nested_rule(shape, depth):
    """A rule whose deepest expression, isEmpty's argument, is `depth` levels deep."""
    k = depth - 2  # levels between the outermost statement and that argument
    if shape == "paren":
        stmt = 'assert (' + "(" * k + 'isEmpty("")' + ")" * k + ') { msg("never"); }'
    elif shape == "not":
        stmt = 'assert (' + "NOT " * k + 'isEmpty("")) { msg("never"); }'
    else:
        stmt = 'if (isEmpty("x")) { ' * k + 'assert (isEmpty("")) { msg("never"); }' + " }" * k
    return f"Rule deep {{\n{stmt}\n}}\n"


@pytest.mark.parametrize("shape", ["paren", "not", "block"])
def test_nesting_is_bounded_where_it_crosses_the_bound(shape):
    parse_rule(nested_rule(shape, MAX_NESTING))
    source = nested_rule(shape, MAX_NESTING + 1)
    with pytest.raises(RslSyntaxError) as exc:
        parse_rule(source)
    assert exc.value.expected == f"at most {MAX_NESTING} levels of nesting"
    assert exc.value.found.lexeme == '""'
    assert (exc.value.line, exc.value.column) == (2, source.splitlines()[1].index('("")') + 2)
