"""Static validation of rule ASTs.

Checks three things a parse alone cannot: every identifier read is bound
by an enclosing for/exists/declaration, every called function is a known
built-in, and every call passes an acceptable number of arguments.
Validating a rule compiles it (runtime/interpreter.py) with no model and
no query cache: the diagnostics are what the compiler records as it
resolves each name and looks up each call in builtins.BUILTINS, so a
rule is checked by the same scope walk that runs it.  They come in
source order, a call before its arguments and a for or exists container
before its body or predicate.  Returns diagnostics instead of raising so
callers can report them all.
"""

from __future__ import annotations

from mecheck.builtins import LibraryPatternSet, Registry
from mecheck.rsl import ast
from mecheck.runtime.interpreter import (
    BUILTIN_ARITY,
    UNDECLARED_VARIABLE,
    UNKNOWN_BUILTIN,
    Diagnostic,
    Interpreter,
)

__all__ = ["BUILTIN_ARITY", "UNDECLARED_VARIABLE", "UNKNOWN_BUILTIN", "Diagnostic",
           "validate_rule"]


def validate_rule(rule: ast.Rule) -> list[Diagnostic]:
    """Validate one rule; an empty result means the rule is runnable."""
    # compiling calls no built-in, so the registry needs no library patterns
    _, _, diagnostics = Interpreter(None, Registry(LibraryPatternSet([]))).compile_rule(rule)
    return diagnostics
