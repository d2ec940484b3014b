import pytest

from mecheck.rsl.lexer import (
    CHAR,
    ELEMENT_TYPE,
    FLOAT,
    IDENT,
    INT,
    KEYWORD,
    PUNCT,
    STRING,
    InvalidCharacter,
    NonUtf8Input,
    UnterminatedString,
    decode_source,
    tokenize,
    unescape_string,
)
from rsl_printer import escape_string


def kinds_and_lexemes(source):
    return [(t.kind, t.lexeme) for t in tokenize(source)]


def test_rule_header_tokens():
    assert kinds_and_lexemes("Rule method-exists {") == [
        (KEYWORD, "Rule"),
        (IDENT, "method-exists"),
        (PUNCT, "{"),
    ]


def test_for_line_token_stream():
    got = kinds_and_lexemes('for (<bean> b in getElms(x, "bean"))')
    assert got == [
        (KEYWORD, "for"),
        (PUNCT, "("),
        (ELEMENT_TYPE, "<bean>"),
        (IDENT, "b"),
        (KEYWORD, "in"),
        (IDENT, "getElms"),
        (PUNCT, "("),
        (IDENT, "x"),
        (PUNCT, ","),
        (STRING, '"bean"'),
        (PUNCT, ")"),
        (PUNCT, ")"),
    ]


def test_assert_msg_token_stream():
    got = kinds_and_lexemes('assert (classExists(cn)) { msg("no %s", cn); }')
    assert got == [
        (KEYWORD, "assert"),
        (PUNCT, "("),
        (IDENT, "classExists"),
        (PUNCT, "("),
        (IDENT, "cn"),
        (PUNCT, ")"),
        (PUNCT, ")"),
        (PUNCT, "{"),
        (KEYWORD, "msg"),
        (PUNCT, "("),
        (STRING, '"no %s"'),
        (PUNCT, ","),
        (IDENT, "cn"),
        (PUNCT, ")"),
        (PUNCT, ";"),
        (PUNCT, "}"),
    ]


def test_keywords_vs_identifiers():
    toks = tokenize("Rule for in if assert msg exists AND OR NOT file class method field String")
    assert all(t.kind == KEYWORD for t in toks)
    # lowercase and/or/not and capitalized If are plain identifiers
    toks = tokenize("and or not If rule forEach")
    assert all(t.kind == IDENT for t in toks)


def test_positions_are_one_based():
    toks = tokenize('if (x)\n  y = foo("a");')
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (1, 4)
    y = [t for t in toks if t.lexeme == "y"][0]
    assert (y.line, y.column) == (2, 3)
    lit = [t for t in toks if t.kind == STRING][0]
    assert (lit.line, lit.column) == (2, 11)


def test_comments_are_dropped():
    toks = tokenize("x // trailing words ; } {\n// whole line\ny")
    assert [t.lexeme for t in toks] == ["x", "y"]


def test_eq_vs_assign():
    toks = tokenize("a == b = c")
    assert [(t.kind, t.lexeme) for t in toks if t.kind == PUNCT] == [
        (PUNCT, "=="),
        (PUNCT, "="),
    ]


def test_hyphenated_identifier_is_one_token():
    toks = tokenize("r1-xml-path-check")
    assert len(toks) == 1
    assert toks[0].kind == IDENT
    assert toks[0].lexeme == "r1-xml-path-check"


def test_trailing_hyphen_is_not_part_of_identifier():
    with pytest.raises(InvalidCharacter):
        tokenize("name- x")


def test_element_type_token():
    toks = tokenize("<constructor-arg>")
    assert [(t.kind, t.lexeme) for t in toks] == [(ELEMENT_TYPE, "<constructor-arg>")]


def test_unclosed_element_type():
    with pytest.raises(InvalidCharacter):
        tokenize("<bean")


def test_numbers():
    toks = tokenize("0 42 3.5")
    assert [(t.kind, t.lexeme) for t in toks] == [
        (INT, "0"),
        (INT, "42"),
        (FLOAT, "3.5"),
    ]


def test_char_literal():
    toks = tokenize("'a' '\\''")
    assert [(t.kind, t.lexeme) for t in toks] == [(CHAR, "'a'"), (CHAR, "'\\''")]


def test_string_escapes():
    toks = tokenize('"a\\"b" "c\\\\d"')
    assert [t.lexeme for t in toks] == ['"a\\"b"', '"c\\\\d"']
    assert unescape_string(toks[0].lexeme) == 'a"b'
    assert unescape_string(toks[1].lexeme) == "c\\d"


def test_unsupported_escape_rejected():
    with pytest.raises(InvalidCharacter):
        tokenize('"a\\nb"')


def test_unterminated_string_reports_opening_quote():
    with pytest.raises(UnterminatedString) as exc:
        tokenize('x = "abc')
    assert exc.value.line == 1
    assert exc.value.column == 5


def test_string_may_not_span_lines():
    with pytest.raises(UnterminatedString):
        tokenize('"abc\ndef"')


def test_unexpected_character():
    with pytest.raises(InvalidCharacter) as exc:
        tokenize("a @ b")
    assert exc.value.line == 1
    assert exc.value.column == 3


def test_decode_source_utf8():
    assert decode_source("Rule x { }".encode("utf-8")) == "Rule x { }"


def test_decode_source_rejects_bad_bytes():
    with pytest.raises(NonUtf8Input) as exc:
        decode_source(b"Rule a {\n \xff }")
    assert exc.value.line == 2
    assert exc.value.column == 2


def test_escape_unescape_round_trip():
    for text in ['plain', 'has "quotes"', "back\\slash", '\\" mixed "\\']:
        assert unescape_string(escape_string(text)) == text


def test_decode_source_drops_one_leading_bom():
    assert decode_source(b"\xef\xbb\xbfRule x { }") == "Rule x { }"
    assert decode_source(b"\xef\xbb\xbf\xef\xbb\xbfx") == "\ufeffx"


def test_decode_source_counts_positions_after_the_bom():
    with pytest.raises(NonUtf8Input) as exc:
        decode_source(b"\xef\xbb\xbf\xff")
    assert (exc.value.line, exc.value.column) == (1, 1)


def error_of(source):
    with pytest.raises((InvalidCharacter, UnterminatedString)) as exc:
        tokenize(source)
    return type(exc.value), exc.value.reason, exc.value.line, exc.value.column


def unexpected(ch, column, line=1):
    return InvalidCharacter, f"unexpected character {ch!r}", line, column


@pytest.mark.parametrize("source, column", [("x = ²", 5), ("①", 1), ("1.²", 2), ("12²", 3)])
def test_non_decimal_digits_are_unexpected(source, column):
    assert error_of(source) == unexpected(source[column - 1], column)


def test_decimal_digits_of_any_script_are_numbers():
    assert kinds_and_lexemes("٣ ٣.٣") == [(INT, "٣"), (FLOAT, "٣.٣")]


def test_word_starts_with_a_letter_or_underscore():
    assert kinds_and_lexemes("é _x a½Ⅻ٣") == [(IDENT, "é"), (IDENT, "_x"), (IDENT, "a½Ⅻ٣")]
    assert error_of("½x") == unexpected("½", 1)
    assert error_of("x Ⅻ") == unexpected("Ⅻ", 3)


def test_hyphen_joins_two_word_characters_only():
    assert kinds_and_lexemes("a-½ b_-_c") == [(IDENT, "a-½"), (IDENT, "b_-_c")]
    assert error_of("a--b") == unexpected("-", 2)
    assert error_of("name-") == unexpected("-", 5)


def test_number_then_dot_is_an_int_and_a_stray_dot():
    assert error_of("1.") == unexpected(".", 2)


def test_triple_quote_is_the_quote_char():
    assert kinds_and_lexemes("'''") == [(CHAR, "'''")]


def test_char_escape_error_is_at_the_opening_quote():
    assert error_of("x '\\q'") == (InvalidCharacter, "unsupported escape \\q", 1, 3)


@pytest.mark.parametrize(
    "source, error",
    [
        ('x "a\\qb"', (InvalidCharacter, "unsupported escape \\q", 1, 5)),
        ('x "a\\\nb"', (InvalidCharacter, "unsupported escape \\\n", 1, 5)),
        ('x "a\\', (UnterminatedString, "unterminated string literal", 1, 3)),
        ('x "a\r\n"', (UnterminatedString, "unterminated string literal", 1, 3)),
    ],
)
def test_string_escape_and_end_errors(source, error):
    assert error_of(source) == error


def test_string_keeps_a_carriage_return():
    assert kinds_and_lexemes('"a\rb"') == [(STRING, '"a\rb"')]


@pytest.mark.parametrize(
    "source, reason",
    [
        ("<1x>", "'<' must start an element type like <bean>"),
        ("<", "'<' must start an element type like <bean>"),
        ("<bean", "unclosed element type; expected '>'"),
        ("<bean->", "unclosed element type; expected '>'"),
    ],
)
def test_element_type_errors(source, reason):
    assert error_of(" " + source) == (InvalidCharacter, reason, 1, 2)


def test_carriage_return_and_tab_are_one_column_each():
    toks = tokenize("\tx\ry\r\n z")
    assert [(t.lexeme, t.line, t.column) for t in toks] == [("x", 1, 2), ("y", 1, 4), ("z", 2, 2)]
