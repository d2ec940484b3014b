"""Canonical pretty-printer for rule ASTs, for round-trip tests.

format_rule(parse_rule(text)) produces source that parses back to a
structurally identical AST (structurally_equal).  Two-space indentation,
one statement per line, spaces around keywords and after commas.
"""

from __future__ import annotations

from mecheck.record import Record
from mecheck.rsl import ast

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_ATOM = 4


def escape_string(text: str) -> str:
    """Inverse of lexer.unescape_string: text value -> quoted lexeme."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def type_label(tag: ast.TypeTag) -> str:
    """A declared type as rule source writes it: <bean>, String, class, ..."""
    if tag.kind == ast.ELEMENT:
        return f"<{tag.element_name}>"
    return tag.kind


def format_rule(rule: ast.Rule) -> str:
    lines = [f"Rule {rule.name} {{"]
    for stmt in rule.body:
        _format_stmt(stmt, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _format_stmt(stmt: ast.Stmt, depth: int, lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(stmt, ast.ForStmt):
        container = format_exp(stmt.container)
        lines.append(f"{pad}for ({type_label(stmt.decl_type)} {stmt.var} in {container}) {{")
        for child in stmt.body:
            _format_stmt(child, depth + 1, lines)
        lines.append(pad + "}")
    elif isinstance(stmt, ast.IfStmt):
        lines.append(f"{pad}if ({format_exp(stmt.cond)}) {{")
        for child in stmt.body:
            _format_stmt(child, depth + 1, lines)
        lines.append(pad + "}")
    elif isinstance(stmt, ast.AssertStmt):
        lines.append(f"{pad}assert ({format_exp(stmt.cond)}) {{")
        msg = stmt.message
        parts = [escape_string(msg.template)]
        parts.extend(format_exp(a) for a in msg.args)
        lines.append(f"{pad}  msg({', '.join(parts)});")
        lines.append(pad + "}")
    elif isinstance(stmt, ast.DeclStmt):
        lines.append(
            f"{pad}{type_label(stmt.decl_type)} {stmt.var} = {format_exp(stmt.init)};"
        )
    else:
        raise TypeError(f"unknown statement node: {stmt!r}")


def format_exp(exp: ast.Exp) -> str:
    return _format(exp, _PREC_OR)


def _format(exp: ast.Exp, need: int) -> str:
    if isinstance(exp, ast.Identifier):
        return exp.name
    if isinstance(exp, ast.Literal):
        if exp.kind == "string":
            return escape_string(exp.value)
        if exp.kind == "char":
            body = str(exp.value).replace("\\", "\\\\").replace("'", "\\'")
            return f"'{body}'"
        return repr(exp.value)
    if isinstance(exp, ast.FunctionCall):
        args = ", ".join(_format(a, _PREC_OR) for a in exp.args)
        return f"{exp.name}({args})"
    if isinstance(exp, ast.Paren):
        return f"({_format(exp.inner, _PREC_OR)})"
    if isinstance(exp, ast.Eq):
        # The right side must stay a simple expression when reparsed.
        rhs = _format(exp.rhs, _PREC_ATOM)
        return f"{_format(exp.lhs, _PREC_ATOM)} == {rhs}"
    if isinstance(exp, ast.Exists):
        container = _format(exp.container, _PREC_OR)
        head = f"exists ({type_label(exp.decl_type)} {exp.var} in {container})"
        return f"{head} ({_format(exp.predicate, _PREC_OR)})"
    if isinstance(exp, ast.Not):
        text = f"NOT {_format(exp.operand, _PREC_NOT)}"
        return f"({text})" if need > _PREC_NOT else text
    if isinstance(exp, ast.And):
        # Right-associative: a left child at the same level needs parens.
        left = _format(exp.left, _PREC_AND + 1)
        right = _format(exp.right, _PREC_AND)
        text = f"{left} AND {right}"
        return f"({text})" if need > _PREC_AND else text
    if isinstance(exp, ast.Or):
        left = _format(exp.left, _PREC_OR + 1)
        right = _format(exp.right, _PREC_OR)
        text = f"{left} OR {right}"
        return f"({text})" if need > _PREC_OR else text
    raise TypeError(f"unknown expression node: {exp!r}")


def structurally_equal(a: object, b: object) -> bool:
    """Compare two AST fragments, ignoring Span fields."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Record):
        return all(
            structurally_equal(getattr(a, name), getattr(b, name))
            for name in a.__slots__
            if not isinstance(getattr(a, name), ast.Span)
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            structurally_equal(x, y) for x, y in zip(a, b)
        )
    return a == b
