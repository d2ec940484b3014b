"""Frozen copy of the character-by-character RSL tokenizer.

tests/test_lexer_oracle.py asserts that mecheck.rsl.lexer.tokenize, which
reads tokens with one compiled pattern, returns the same tokens or raises
the same error (class, reason, line, column) as this copy.  Keep its logic
unchanged.  It reads any character str.isdigit() accepts as a digit, so
inputs compared against it hold no digit that is not decimal.
"""

from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = frozenset(
    [
        "Rule",
        "for",
        "in",
        "if",
        "assert",
        "msg",
        "exists",
        "AND",
        "OR",
        "NOT",
        "file",
        "class",
        "method",
        "field",
        "String",
    ]
)

KEYWORD = "keyword"
IDENT = "identifier"
STRING = "string-literal"
CHAR = "char-literal"
INT = "int-literal"
FLOAT = "float-literal"
PUNCT = "punctuation"
ELEMENT_TYPE = "element-type"


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    line: int
    column: int


class LexError(Exception):
    """Base class for tokenizer failures; carries a 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.reason = message
        self.line = line
        self.column = column


class UnterminatedString(LexError):
    pass


class InvalidCharacter(LexError):
    pass


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def at_end(self) -> bool:
        return self.pos >= len(self.src)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def advance(self) -> str:
        ch = self.src[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch


def tokenize(source: str) -> list[Token]:
    """Tokenize RSL source text.

    Raises UnterminatedString or InvalidCharacter with the offending
    position.  Comments and whitespace are dropped.
    """
    sc = _Scanner(source)
    tokens: list[Token] = []
    while not sc.at_end():
        ch = sc.peek()
        if ch in " \t\r\n":
            sc.advance()
            continue
        if ch == "/" and sc.peek(1) == "/":
            while not sc.at_end() and sc.peek() != "\n":
                sc.advance()
            continue
        line, col = sc.line, sc.col
        if ch == '"':
            tokens.append(_scan_string(sc, line, col))
            continue
        if ch == "'":
            tokens.append(_scan_char(sc, line, col))
            continue
        if ch == "<":
            tokens.append(_scan_element_type(sc, line, col))
            continue
        if ch.isdigit():
            tokens.append(_scan_number(sc, line, col))
            continue
        if _is_ident_start(ch):
            tokens.append(_scan_word(sc, line, col))
            continue
        if ch == "=" and sc.peek(1) == "=":
            sc.advance()
            sc.advance()
            tokens.append(Token(PUNCT, "==", line, col))
            continue
        if ch in "(){},;=":
            sc.advance()
            tokens.append(Token(PUNCT, ch, line, col))
            continue
        raise InvalidCharacter(f"unexpected character {ch!r}", line, col)
    return tokens


def _scan_string(sc: _Scanner, line: int, col: int) -> Token:
    sc.advance()
    out = ['"']
    while True:
        if sc.at_end() or sc.peek() == "\n":
            raise UnterminatedString("unterminated string literal", line, col)
        ch = sc.advance()
        if ch == "\\":
            if sc.at_end():
                raise UnterminatedString("unterminated string literal", line, col)
            esc_line, esc_col = sc.line, sc.col - 1
            nxt = sc.advance()
            if nxt not in ('"', "\\"):
                raise InvalidCharacter(f"unsupported escape \\{nxt}", esc_line, esc_col)
            out.append("\\" + nxt)
            continue
        out.append(ch)
        if ch == '"':
            break
    return Token(STRING, "".join(out), line, col)


def _scan_char(sc: _Scanner, line: int, col: int) -> Token:
    sc.advance()
    if sc.at_end() or sc.peek() == "\n":
        raise UnterminatedString("unterminated char literal", line, col)
    ch = sc.advance()
    body = ch
    if ch == "\\":
        if sc.at_end():
            raise UnterminatedString("unterminated char literal", line, col)
        nxt = sc.advance()
        if nxt not in ("'", "\\"):
            raise InvalidCharacter(f"unsupported escape \\{nxt}", line, col)
        body += nxt
    if sc.at_end() or sc.peek() != "'":
        raise UnterminatedString("unterminated char literal", line, col)
    sc.advance()
    return Token(CHAR, "'" + body + "'", line, col)


def _scan_element_type(sc: _Scanner, line: int, col: int) -> Token:
    sc.advance()
    if sc.at_end() or not _is_ident_start(sc.peek()):
        raise InvalidCharacter("'<' must start an element type like <bean>", line, col)
    name = _scan_ident_text(sc)
    if sc.at_end() or sc.peek() != ">":
        raise InvalidCharacter("unclosed element type; expected '>'", line, col)
    sc.advance()
    return Token(ELEMENT_TYPE, "<" + name + ">", line, col)


def _scan_number(sc: _Scanner, line: int, col: int) -> Token:
    digits = []
    while not sc.at_end() and sc.peek().isdigit():
        digits.append(sc.advance())
    if sc.peek() == "." and sc.peek(1).isdigit():
        digits.append(sc.advance())
        while not sc.at_end() and sc.peek().isdigit():
            digits.append(sc.advance())
        return Token(FLOAT, "".join(digits), line, col)
    return Token(INT, "".join(digits), line, col)


def _scan_ident_text(sc: _Scanner) -> str:
    parts = [sc.advance()]
    while not sc.at_end():
        ch = sc.peek()
        if _is_ident_char(ch):
            parts.append(sc.advance())
        elif ch == "-" and _is_ident_char(sc.peek(1)):
            parts.append(sc.advance())
        else:
            break
    return "".join(parts)


def _scan_word(sc: _Scanner, line: int, col: int) -> Token:
    text = _scan_ident_text(sc)
    kind = KEYWORD if text in KEYWORDS else IDENT
    return Token(kind, text, line, col)
