import ast as pyast
from pathlib import Path

from mecheck.builtins import BUILTINS
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.interpreter import (
    BUILTIN_ARITY,
    UNDECLARED_VARIABLE,
    UNKNOWN_BUILTIN,
    emit_pack,
)
from reference_validator import reference_validate_rule
from rsl_printer import format_rule
from test_properties import SCOPE_EDGES, differential_corpus

CLEAN = """\
Rule ok {
  for (file x in getXMLs()) {
    for (<bean> b in getElms(x, "bean")) {
      String cn = getAttr(b, "class");
      if (classExists(cn)) {
        class c = locateClassFQN(cn);
        assert (exists (method m in getMethods(c)) (getName(m) == cn)) {
          msg("no %s", cn);
        }
      }
    }
  }
}
"""


def validate_rule(rule):
    """What loading a pack finds wrong with the rule: the diagnostics of
    writing its code."""
    return emit_pack([rule], BUILTINS).diagnostics[0]


def codes(source):
    return [(d.code, d.message) for d in validate_rule(parse_rule(source))]


def test_clean_rule_has_no_diagnostics():
    assert codes(CLEAN) == []


def test_every_shipped_builtin_name_is_known():
    # the clean listing exercises a handful; unknown names are the error case
    diags = codes('Rule a { String x = getNme(y); }')
    assert any(code == "unknown-builtin" for code, _ in diags)
    assert any("getNme" in message for _, message in diags)


def test_builtin_names_are_case_sensitive():
    diags = codes('Rule a { if (classexists("C")) { String q = join("a", "b"); } }')
    assert any(code == "unknown-builtin" and "classexists" in message for code, message in diags)


def test_undeclared_variable():
    diags = codes('Rule a { String x = getName(ghost); }')
    assert [code for code, _ in diags] == ["undeclared-variable"]
    assert "ghost" in diags[0][1]


def test_declared_variable_not_visible_before_decl():
    src = """\
Rule a {
  String x = getName(y);
  class y = locateClassFQN("C");
}
"""
    diags = codes(src)
    assert any(code == "undeclared-variable" and "y" in message for code, message in diags)


def test_for_variable_scoped_to_body():
    src = """\
Rule a {
  for (method m in getMethods(c)) {
    String x = getName(m);
  }
  String y = getName(m);
}
"""
    diags = codes(src.replace("getMethods(c)", 'getMethods(locateClassFQN("C"))'))
    assert [code for code, _ in diags] == ["undeclared-variable"]
    assert "m" in diags[0][1]


def test_exists_variable_scoped_to_predicate():
    src = """\
Rule a {
  if (exists (method m in getMethods(locateClassFQN("C"))) (isEmpty(getName(m)))) {
    String x = getName(m);
  }
}
"""
    diags = codes(src)
    assert [code for code, _ in diags] == ["undeclared-variable"]


def test_decl_in_if_body_not_visible_after():
    src = """\
Rule a {
  if (isEmpty(getXMLs())) {
    String inner = join("a", "b");
  }
  String outer = upperCase(inner);
}
"""
    diags = codes(src)
    assert [code for code, _ in diags] == ["undeclared-variable"]
    assert "inner" in diags[0][1]


def test_arity_too_few():
    diags = codes('Rule a { String x = substring("abc"); }')
    assert [code for code, _ in diags] == ["builtin-arity"]
    assert "substring" in diags[0][1]


def test_arity_too_many():
    diags = codes('Rule a { if (isEmpty(getXMLs(), "x")) { String q = getName(z); } }')
    assert any(code == "builtin-arity" and "isEmpty" in message for code, message in diags)


def test_variadic_join_accepts_two_or_more():
    assert codes('Rule a { String x = join("a", "b"); }') == []
    assert codes('Rule a { String x = join("a", "b", "c", "d"); }') == []
    diags = codes('Rule a { String x = join("a"); }')
    assert [code for code, _ in diags] == ["builtin-arity"]


def test_diagnostics_carry_positions():
    diags = validate_rule(parse_rule('Rule a {\n  String x = getName(ghost);\n}'))
    assert diags[0].line == 2
    assert diags[0].column == 22


def test_multiple_diagnostics_reported_together():
    src = 'Rule a { String x = getNme(ghost); }'
    got = codes(src)
    assert {code for code, _ in got} == {"unknown-builtin", "undeclared-variable"}


def test_every_shipped_rule_validates_cleanly():
    from mecheck.rulepack import default_rules_dir

    for path in sorted(default_rules_dir().glob("*.rsl")):
        rule = parse_rule(path.read_text())
        assert validate_rule(rule) == [], path.name


# -- differential: the compiler's diagnostics against the frozen walk ----------


def own_sources():
    """Every rule source written in this file."""
    tree = pyast.parse(Path(__file__).read_text(encoding="utf-8"))
    return [node.value for node in pyast.walk(tree)
            if isinstance(node, pyast.Constant) and isinstance(node.value, str)
            and node.value.startswith("Rule ") and "{" in node.value]


def shipped_rules():
    from mecheck.rulepack import default_rules_dir

    return [parse_rule(path.read_text()) for path in sorted(default_rules_dir().glob("*.rsl"))]


def rebuilt(node, target, change):
    """node with the node `target` below it replaced by change(target)."""
    if isinstance(node, tuple):
        return tuple(rebuilt(n, target, change) for n in node)
    if not isinstance(node, (ast.Exp, ast.Stmt, ast.MsgStmt, ast.Rule)):
        return node
    new = type(node)(*(rebuilt(getattr(node, name), target, change) for name in node.__slots__))
    return change(new) if node is target else new


def calls_of(node):
    if isinstance(node, tuple):
        for n in node:
            yield from calls_of(n)
    elif isinstance(node, (ast.Exp, ast.Stmt, ast.MsgStmt, ast.Rule)):
        if isinstance(node, ast.FunctionCall):
            yield node
        for name in node.__slots__:
            yield from calls_of(getattr(node, name))


def mutations(rule):
    """Copies of rule with one call renamed to an unknown name, given one
    argument more or given one fewer."""
    for call in calls_of(rule):
        extra = ast.Literal("extra", "string", call.span)
        yield rebuilt(rule, call, lambda c: ast.FunctionCall(c.name + "Zz", c.args, c.span))
        yield rebuilt(rule, call, lambda c: ast.FunctionCall(c.name, c.args + (extra,), c.span))
        if call.args:
            yield rebuilt(rule, call, lambda c: ast.FunctionCall(c.name, c.args[:-1], c.span))


def rows(diagnostics):
    return [(d.code, d.message, d.line, d.column) for d in diagnostics]


def test_validate_rule_matches_the_frozen_walk():
    rules = []
    for seed in (7373, 5150, 11):
        rules += differential_corpus(seed=seed, valid=150, per_variant=20)
    rules += [parse_rule(source) for source in SCOPE_EDGES + own_sources()]
    pack = shipped_rules()
    mutated = [m for rule in pack for m in mutations(rule)]
    assert len(mutated) > 3 * 100
    seen = set()
    for rule in rules + pack + mutated:
        got = rows(validate_rule(rule))
        assert got == rows(reference_validate_rule(rule)), format_rule(rule)
        seen.update(code for code, *_ in got)
    assert seen == {UNDECLARED_VARIABLE, UNKNOWN_BUILTIN, BUILTIN_ARITY}


def test_a_cached_compile_reports_what_validation_does():
    # an indexed exists writes its predicate's sides as functions of their
    # own, and a rule in a shared walk has its shared head's diagnostics at
    # its own positions
    body = ('String s = join(ghost, "a");'
            ' for (<bean> b in getElms(getXMLs(), "bean")) {'
            ' assert (exists (<bean> o in getElms(getXMLs(), "bean"))'
            ' (getAttr(o, "id", 1) == nope(ghost))) { msg("m"); } } }')
    rules = [parse_rule(f"Rule c{k} {{{chr(10) * k}{' ' * k}{body}") for k in range(3)]
    pack = emit_pack(rules, BUILTINS)
    assert [len(step.rules) for step, _ in pack.walks] == [3]
    for rule, found in zip(rules, pack.diagnostics):
        assert rows(found) == rows(validate_rule(rule)) == rows(reference_validate_rule(rule))
        assert [code for code, *_ in rows(found)] == [UNDECLARED_VARIABLE, BUILTIN_ARITY,
                                                       UNKNOWN_BUILTIN, UNDECLARED_VARIABLE]
    assert len({tuple(rows(found)) for found in pack.diagnostics}) == 3
