"""Front end for the RSL rule language.

Submodules:
    lexer      source text -> tokens
    ast        node classes shared by the parser and interpreter
    parser     tokens -> Rule AST

A rule is validated as its code is written (runtime/interpreter.py).
"""
