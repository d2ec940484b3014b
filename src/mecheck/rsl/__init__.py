"""Front end for the RSL rule language.

Submodules:
    lexer      source text -> tokens
    ast        node classes shared by the parser and interpreter
    parser     tokens -> Rule AST
    validator  static checks (declared variables, known built-ins, arity)
"""

from mecheck.rsl.lexer import tokenize, decode_source
from mecheck.rsl.parser import parse_rule
from mecheck.rsl.validator import validate_rule

__all__ = ["tokenize", "decode_source", "parse_rule", "validate_rule"]
