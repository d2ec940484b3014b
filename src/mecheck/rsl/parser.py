"""Recursive-descent parser for the RSL rule language.

Grammar, one rule per file:

    rule          := 'Rule' Id body
    body          := '{' stmt+ '}'
    stmt          := forStmt | ifStmt | assertStmt | declStmt ';'
    forStmt       := 'for' '(' type Id 'in' exp ')' body
    ifStmt        := 'if' '(' exp ')' body
    assertStmt    := 'assert' '(' exp ')' '{' msgStmt ';' '}'
    msgStmt       := 'msg' '(' StringLit (',' simExp)* ')'
    declStmt      := type Id '=' exp
    exp           := orExp
    orExp         := andExp ('OR' orExp)?
    andExp        := notExp ('AND' andExp)?
    notExp        := 'NOT' notExp | simExp
    simExp        := Id | Lit | '(' exp ')'
                   | functionCall ('==' simExp)?
                   | 'exists' '(' type Id 'in' exp ')' '(' exp ')'
    functionCall  := Id '(' (simExp (',' simExp)*)? ')'
    type          := ElementType | 'file' | 'class' | 'method' | 'field' | 'String'

NOT binds tighter than AND, AND tighter than OR; chains of the same
operator associate to the right.  There is no else clause.  The first
msg argument is the template; it must contain exactly one %s per
remaining argument.

A rule nests at most MAX_NESTING levels deep.  Each statement is one
level deeper than the block around it, and so is each expression inside
another: a parenthesised expression, the operand of NOT, the right
operand of AND, OR and ==, a call argument, and the container and
predicate of exists.
"""

from __future__ import annotations

import sys
from typing import Callable, TypeVar

from mecheck.rsl import ast
from mecheck.rsl import lexer
from mecheck.rsl.lexer import Token

TYPE_KEYWORDS = {"file", "class", "method", "field", "String"}

# Parsing, validating, compiling and running a rule each recurse a few
# Python frames per level, so this bound keeps a rule well inside the
# interpreter's recursion limit.  The shipped rules nest at most 14 deep.
MAX_NESTING = 64

_T = TypeVar("_T")


class RslSyntaxError(Exception):
    """Parse failure: reports what was expected and what was found."""

    def __init__(self, expected: str, found: Token | None, line: int, column: int):
        shown = "end of input" if found is None else repr(found.lexeme)
        super().__init__(f"expected {expected}, found {shown} at line {line}, column {column}")
        self.expected = expected
        self.found = found
        self.line = line
        self.column = column


class ArityMismatch(Exception):
    """msg template %s count does not match the argument count."""

    def __init__(self, placeholders: int, arg_count: int, line: int, column: int):
        super().__init__(
            f"msg template has {placeholders} %s placeholder(s) "
            f"but {arg_count} argument(s) at line {line}, column {column}"
        )
        self.placeholders = placeholders
        self.arg_count = arg_count
        self.line = line
        self.column = column


def parse_rule(source: str) -> ast.Rule:
    """Parse one rule from source text and return its AST."""
    tokens = lexer.tokenize(source)
    return _Parser(tokens).parse()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.idx = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.idx + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def at(self, kind: str, lexeme: str | None = None) -> bool:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            return False
        return lexeme is None or tok.lexeme == lexeme

    def error(self, expected: str) -> RslSyntaxError:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            column = last.column + len(last.lexeme) if last else 1
            return RslSyntaxError(expected, None, line, column)
        return RslSyntaxError(expected, tok, tok.line, tok.column)

    def expect(self, kind: str, lexeme: str | None = None, what: str | None = None) -> Token:
        if not self.at(kind, lexeme):
            raise self.error(what or (lexeme if lexeme else kind))
        return self.advance()

    def nested(self, parse: Callable[[], _T]) -> _T:
        """Run a sub-parse one nesting level deeper.

        A syntax error ends the whole parse, so the level is not restored
        when parse() raises.
        """
        if self.depth == MAX_NESTING:
            raise self.error(f"at most {MAX_NESTING} levels of nesting")
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    @staticmethod
    def span(first: Token) -> ast.Span:
        return ast.Span(first.line, first.column)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> ast.Rule:
        first = self.expect(lexer.KEYWORD, "Rule", what="'Rule'")
        name = self.expect(lexer.IDENT, what="rule name")
        body = self.parse_body()
        if self.peek() is not None:
            raise self.error("end of input")
        return ast.Rule(name.lexeme, body, self.span(first))

    def parse_body(self) -> tuple[ast.Stmt, ...]:
        self.expect(lexer.PUNCT, "{", what="'{'")
        stmts: list[ast.Stmt] = []
        while not self.at(lexer.PUNCT, "}"):
            if self.peek() is None:
                raise self.error("'}'")
            stmts.append(self.nested(self.parse_stmt))
        close = self.advance()
        if not stmts:
            raise RslSyntaxError("at least one statement", close, close.line, close.column)
        return tuple(stmts)

    def parse_stmt(self) -> ast.Stmt:
        if self.at(lexer.KEYWORD, "for"):
            return self.parse_for()
        if self.at(lexer.KEYWORD, "if"):
            return self.parse_if()
        if self.at(lexer.KEYWORD, "assert"):
            return self.parse_assert()
        if self._at_type():
            return self.parse_decl()
        raise self.error("a statement (for, if, assert, or a declaration)")

    def _at_type(self) -> bool:
        tok = self.peek()
        if tok is None:
            return False
        if tok.kind == lexer.ELEMENT_TYPE:
            return True
        return tok.kind == lexer.KEYWORD and tok.lexeme in TYPE_KEYWORDS

    def parse_type(self) -> ast.TypeTag:
        tok = self.peek()
        if tok is not None and tok.kind == lexer.ELEMENT_TYPE:
            self.advance()
            return ast.TypeTag(ast.ELEMENT, tok.lexeme[1:-1])
        if tok is not None and tok.kind == lexer.KEYWORD and tok.lexeme in TYPE_KEYWORDS:
            self.advance()
            return ast.TypeTag(tok.lexeme)
        raise self.error("a type (file, class, method, field, String, or <element>)")

    def parse_for(self) -> ast.ForStmt:
        first = self.advance()
        self.expect(lexer.PUNCT, "(", what="'('")
        decl_type = self.parse_type()
        var = self.expect(lexer.IDENT, what="loop variable name")
        self.expect(lexer.KEYWORD, "in", what="'in'")
        container = self.parse_exp()
        self.expect(lexer.PUNCT, ")", what="')'")
        body = self.parse_body()
        return ast.ForStmt(decl_type, var.lexeme, container, body, self.span(first))

    def parse_if(self) -> ast.IfStmt:
        first = self.advance()
        self.expect(lexer.PUNCT, "(", what="'('")
        cond = self.parse_exp()
        self.expect(lexer.PUNCT, ")", what="')'")
        body = self.parse_body()
        return ast.IfStmt(cond, body, self.span(first))

    def parse_assert(self) -> ast.AssertStmt:
        first = self.advance()
        self.expect(lexer.PUNCT, "(", what="'('")
        cond = self.parse_exp()
        self.expect(lexer.PUNCT, ")", what="')'")
        self.expect(lexer.PUNCT, "{", what="'{'")
        message = self.parse_msg()
        self.expect(lexer.PUNCT, ";", what="';'")
        self.expect(lexer.PUNCT, "}", what="'}'")
        return ast.AssertStmt(cond, message, self.span(first))

    def parse_msg(self) -> ast.MsgStmt:
        first = self.expect(lexer.KEYWORD, "msg", what="'msg'")
        self.expect(lexer.PUNCT, "(", what="'('")
        tmpl_tok = self.expect(lexer.STRING, what="message template string")
        template = lexer.unescape_string(tmpl_tok.lexeme)
        args: list[ast.Exp] = []
        while self.at(lexer.PUNCT, ","):
            self.advance()
            args.append(self.parse_simexp())
        self.expect(lexer.PUNCT, ")", what="')'")
        placeholders = template.count("%s")
        if placeholders != len(args):
            raise ArityMismatch(placeholders, len(args), tmpl_tok.line, tmpl_tok.column)
        return ast.MsgStmt(template, tuple(args), self.span(first))

    def parse_decl(self) -> ast.DeclStmt:
        first = self.peek()
        decl_type = self.parse_type()
        var = self.expect(lexer.IDENT, what="variable name")
        self.expect(lexer.PUNCT, "=", what="'='")
        init = self.parse_exp()
        self.expect(lexer.PUNCT, ";", what="';'")
        return ast.DeclStmt(decl_type, var.lexeme, init, self.span(first))

    # Precedence: NOT > AND > OR, each level right-associative.

    def parse_exp(self) -> ast.Exp:
        left = self.parse_and()
        if self.at(lexer.KEYWORD, "OR"):
            self.advance()
            right = self.nested(self.parse_exp)
            return ast.Or(left, right, left.span)
        return left

    def parse_and(self) -> ast.Exp:
        left = self.parse_not()
        if self.at(lexer.KEYWORD, "AND"):
            self.advance()
            right = self.nested(self.parse_and)
            return ast.And(left, right, left.span)
        return left

    def parse_not(self) -> ast.Exp:
        if self.at(lexer.KEYWORD, "NOT"):
            first = self.advance()
            operand = self.nested(self.parse_not)
            return ast.Not(operand, self.span(first))
        return self.parse_simexp()

    def parse_simexp(self) -> ast.Exp:
        tok = self.peek()
        if tok is None:
            raise self.error("an expression")
        if tok.kind == lexer.PUNCT and tok.lexeme == "(":
            first = self.advance()
            inner = self.nested(self.parse_exp)
            self.expect(lexer.PUNCT, ")", what="')'")
            return ast.Paren(inner, self.span(first))
        if tok.kind == lexer.KEYWORD and tok.lexeme == "exists":
            return self.parse_exists()
        if tok.kind == lexer.STRING:
            self.advance()
            value = lexer.unescape_string(tok.lexeme)
            return ast.Literal(value, "string", self.span(tok))
        if tok.kind == lexer.CHAR:
            self.advance()
            body = tok.lexeme[1:-1]
            value = body.replace("\\'", "'").replace("\\\\", "\\")
            return ast.Literal(value, "char", self.span(tok))
        if tok.kind == lexer.INT:
            self.advance()
            try:
                value = int(tok.lexeme)
            except ValueError:  # more digits than int() converts
                limit = sys.get_int_max_str_digits()
                raise RslSyntaxError(
                    f"an integer of at most {limit} digits", tok, tok.line, tok.column
                ) from None
            return ast.Literal(value, "int", self.span(tok))
        if tok.kind == lexer.FLOAT:
            self.advance()
            return ast.Literal(float(tok.lexeme), "float", self.span(tok))
        if tok.kind == lexer.IDENT:
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == lexer.PUNCT and nxt.lexeme == "(":
                call = self.parse_call()
                if self.at(lexer.PUNCT, "=="):
                    self.advance()
                    rhs = self.nested(self.parse_simexp)
                    return ast.Eq(call, rhs, call.span)
                return call
            self.advance()
            return ast.Identifier(tok.lexeme, self.span(tok))
        raise self.error("an expression")

    def parse_call(self) -> ast.FunctionCall:
        name = self.advance()
        self.expect(lexer.PUNCT, "(", what="'('")
        args: list[ast.Exp] = []
        if not self.at(lexer.PUNCT, ")"):
            args.append(self.nested(self.parse_simexp))
            while self.at(lexer.PUNCT, ","):
                self.advance()
                args.append(self.nested(self.parse_simexp))
        self.expect(lexer.PUNCT, ")", what="')'")
        return ast.FunctionCall(name.lexeme, tuple(args), self.span(name))

    def parse_exists(self) -> ast.Exists:
        first = self.advance()
        self.expect(lexer.PUNCT, "(", what="'('")
        decl_type = self.parse_type()
        var = self.expect(lexer.IDENT, what="bound variable name")
        self.expect(lexer.KEYWORD, "in", what="'in'")
        container = self.nested(self.parse_exp)
        self.expect(lexer.PUNCT, ")", what="')'")
        self.expect(lexer.PUNCT, "(", what="'('")
        predicate = self.nested(self.parse_exp)
        self.expect(lexer.PUNCT, ")", what="')'")
        return ast.Exists(decl_type, var.lexeme, container, predicate, self.span(first))
