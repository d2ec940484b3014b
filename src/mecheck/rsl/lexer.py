"""Tokenizer for the RSL rule language.

Produces a flat list of tokens with 1-based line/column positions.  The
language is small: fifteen keywords, identifiers (hyphens allowed between
segments, so rule names like ``method-exists`` are single tokens), string,
char, int and float literals, a handful of punctuators, and element-type
tokens of the shape ``<bean>``.  ``//`` starts a line comment.
"""

from __future__ import annotations

import codecs
import re

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


class Token:
    """One token: its kind, its text as written, and where it starts."""

    __slots__ = ("kind", "lexeme", "line", "column")

    def __init__(self, kind: str, lexeme: str, line: int, column: int):
        self.kind = kind
        self.lexeme = lexeme
        self.line = line
        self.column = column


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


class NonUtf8Input(LexError):
    pass


def decode_source(data: bytes) -> str:
    """Decode rule-file bytes as UTF-8, mapping failures to NonUtf8Input.

    One leading byte-order mark is dropped; positions count from after it.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start]
        line = prefix.count(b"\n") + 1
        column = exc.start - (prefix.rfind(b"\n") + 1) + 1
        raise NonUtf8Input("input is not valid UTF-8", line, column) from exc


# What may follow a string literal's opening quote: anything on the line
# but a quote or backslash, or the escapes \" and \\.
_STRING_BODY = r'(?:[^"\\\n]|\\["\\])*'

# One alternative per token shape, tried in order at each position.  `\w`
# is str.isalnum() plus "_", and `\d` is str.isdecimal().  Words and
# element types must also start with a letter or "_"; tokenize checks that
# on the first character, which no character class expresses.
_TOKEN = re.compile(
    r"(?P<blank>[ \t\r\n]+|//[^\n]*)"
    rf'|(?P<string>"{_STRING_BODY}")'
    r"|(?P<char>'(?:[^\\\n]|\\['\\])')"
    r"|(?P<element><\w+(?:-\w+)*>)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<word>\w+(?:-\w+)*)"
    r"|(?P<punct>==|[(){},;=])"
)
_STRING_PREFIX = re.compile(_STRING_BODY)
_KINDS = {"string": STRING, "char": CHAR, "element": ELEMENT_TYPE, "punct": PUNCT}


def tokenize(source: str) -> list[Token]:
    """Tokenize RSL source text.

    Raises UnterminatedString or InvalidCharacter with the offending
    position.  Comments and whitespace are dropped.
    """
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        col = pos - line_start + 1
        m = _TOKEN.match(source, pos)
        if m is None:
            raise _lex_error(source, pos, line, col)
        group, text = m.lastgroup, m.group()
        pos = m.end()
        if group == "blank":
            newline = text.rfind("\n")
            if newline >= 0:
                line += text.count("\n")
                line_start = m.start() + newline + 1
            continue
        if group in ("word", "element") and not _starts_name(text.lstrip("<")[0]):
            raise _lex_error(source, m.start(), line, col)
        if group == "word":
            kind = KEYWORD if text in KEYWORDS else IDENT
        elif group == "number":
            kind = FLOAT if "." in text else INT
        else:
            kind = _KINDS[group]
        tokens.append(Token(kind, text, line, col))
    return tokens


def _starts_name(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _lex_error(source: str, pos: int, line: int, col: int) -> LexError:
    """The error for text at pos that starts no token."""
    ch = source[pos]
    if ch == '"':
        stop = _STRING_PREFIX.match(source, pos + 1).end()
        if source[stop : stop + 1] == "\\" and stop + 1 < len(source):
            escape = source[stop + 1]
            return InvalidCharacter(f"unsupported escape \\{escape}", line, col + stop - pos)
        return UnterminatedString("unterminated string literal", line, col)
    if ch == "'":
        body = source[pos + 1 : pos + 3]
        if len(body) == 2 and body[0] == "\\" and body[1] not in "'\\":
            return InvalidCharacter(f"unsupported escape \\{body[1]}", line, col)
        return UnterminatedString("unterminated char literal", line, col)
    if ch == "<":
        if _starts_name(source[pos + 1 : pos + 2]):
            return InvalidCharacter("unclosed element type; expected '>'", line, col)
        return InvalidCharacter("'<' must start an element type like <bean>", line, col)
    return InvalidCharacter(f"unexpected character {ch!r}", line, col)


def unescape_string(lexeme: str) -> str:
    """Turn a string-literal lexeme (quotes included) into its text value."""
    body = lexeme[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")
