"""Frozen copy of the rule validator's own scope walk.

Before the rule compiler reported what it finds wrong with a rule,
mecheck.rsl.validator walked each rule itself: every identifier read
must be bound by an enclosing for/exists/declaration, every called
function must be a known built-in, and every call must pass an
acceptable number of arguments.  tests/test_validator.py compares
validate_rule against reference_validate_rule: the same diagnostics, in
the same order.  Keep its logic unchanged.
"""

from __future__ import annotations

from mecheck import builtins as registry_mod
from mecheck.rsl import ast
from mecheck.rsl.validator import (
    BUILTIN_ARITY,
    UNDECLARED_VARIABLE,
    UNKNOWN_BUILTIN,
    Diagnostic,
)


def reference_validate_rule(rule: ast.Rule) -> list[Diagnostic]:
    """Validate one rule; an empty result means the rule is runnable."""
    out: list[Diagnostic] = []
    _check_stmts(rule.body, [set()], out)
    return out


def _check_stmts(
    stmts: tuple[ast.Stmt, ...],
    scopes: list[set[str]],
    out: list[Diagnostic],
) -> None:
    # Each body list gets its own scope set; declarations extend it for
    # the statements that follow.
    for stmt in stmts:
        if isinstance(stmt, ast.ForStmt):
            _check_exp(stmt.container, scopes, out)
            _check_stmts(stmt.body, scopes + [{stmt.var}], out)
        elif isinstance(stmt, ast.IfStmt):
            _check_exp(stmt.cond, scopes, out)
            _check_stmts(stmt.body, scopes + [set()], out)
        elif isinstance(stmt, ast.AssertStmt):
            _check_exp(stmt.cond, scopes, out)
            for arg in stmt.message.args:
                _check_exp(arg, scopes, out)
        elif isinstance(stmt, ast.DeclStmt):
            _check_exp(stmt.init, scopes, out)
            scopes[-1].add(stmt.var)
        else:
            raise TypeError(f"unknown statement node: {stmt!r}")


def _check_exp(
    exp: ast.Exp, scopes: list[set[str]], out: list[Diagnostic]
) -> None:
    if isinstance(exp, ast.Identifier):
        if not any(exp.name in scope for scope in scopes):
            out.append(
                Diagnostic(
                    UNDECLARED_VARIABLE,
                    f"variable '{exp.name}' is not declared in any enclosing scope",
                    exp.span.line,
                    exp.span.column,
                )
            )
    elif isinstance(exp, ast.Literal):
        pass
    elif isinstance(exp, ast.FunctionCall):
        spec = registry_mod.BUILTINS.get(exp.name)
        if spec is None:
            out.append(
                Diagnostic(
                    UNKNOWN_BUILTIN,
                    f"'{exp.name}' is not a known built-in function",
                    exp.span.line,
                    exp.span.column,
                )
            )
        elif len(exp.args) not in spec.arity:
            out.append(
                Diagnostic(
                    BUILTIN_ARITY,
                    registry_mod.arity_message(exp.name, spec.arity, len(exp.args)),
                    exp.span.line,
                    exp.span.column,
                )
            )
        for arg in exp.args:
            _check_exp(arg, scopes, out)
    elif isinstance(exp, ast.Paren):
        _check_exp(exp.inner, scopes, out)
    elif isinstance(exp, ast.Eq):
        _check_exp(exp.lhs, scopes, out)
        _check_exp(exp.rhs, scopes, out)
    elif isinstance(exp, ast.Exists):
        _check_exp(exp.container, scopes, out)
        _check_exp(exp.predicate, scopes + [{exp.var}], out)
    elif isinstance(exp, ast.And) or isinstance(exp, ast.Or):
        _check_exp(exp.left, scopes, out)
        _check_exp(exp.right, scopes, out)
    elif isinstance(exp, ast.Not):
        _check_exp(exp.operand, scopes, out)
    else:
        raise TypeError(f"unknown expression node: {exp!r}")
