"""Front end for the RSL rule language.

Submodules:
    lexer      source text -> tokens
    ast        node classes shared by the parser and interpreter
    parser     tokens -> Rule AST
    validator  static checks (declared variables, known built-ins, arity),
               made by compiling the rule; it imports mecheck.runtime, so
               this package does not import it
"""

from mecheck.rsl.lexer import tokenize, decode_source
from mecheck.rsl.parser import parse_rule

__all__ = ["tokenize", "decode_source", "parse_rule"]
