"""The pattern lexer reads what the character scanner read.

mecheck.rsl.lexer reads tokens with one compiled pattern.
tests/reference_rsl_lexer.py is the character-by-character scanner it
replaced.  Given the same text, both must return the same tokens (kind,
lexeme, line, column) or raise the same error (class, reason, line,
column).  Text holding a digit that is not decimal, such as '²', is left
out: the scanner read it as a number that int() then rejected, and
tests/test_lexer.py pins what the pattern lexer does with it instead.
"""

import random
from pathlib import Path

import reference_rsl_lexer
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mecheck.rsl import lexer
from mecheck.rulepack import default_rules_dir

# Quotes, escapes, line ends, element types, keywords, hyphens, and
# characters on each side of str.isalpha / isdecimal / isalnum.
ALPHABET = [
    '"', "'", "\\", '\\"', "\\\\", "\r", "\n", "\t", " ", "\r\n",
    "<", ">", "<bean>", "<constructor-arg>", "-", "_", ".", "/", "//",
    "=", "==", "(", ")", "{", "}", ",", ";", "@",
    "a", "Z", "b-c", "0", "42", "3.5",
    "Rule", "for", "exists", "NOT", "String",
    "é", "́", "½", "Ⅻ", "٣", "²",
]
SEEDED_INPUTS = 20_000


def holds_non_decimal_digit(text):
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


def outcome(module, text):
    try:
        return [(t.kind, t.lexeme, t.line, t.column) for t in module.tokenize(text)]
    except module.LexError as exc:
        return type(exc).__name__, exc.reason, exc.line, exc.column


def test_seeded_random_inputs_lex_alike():
    rng = random.Random(20261018)
    compared = 0
    while compared < SEEDED_INPUTS:
        text = "".join(rng.choices(ALPHABET, k=rng.randrange(0, 24)))
        if holds_non_decimal_digit(text):
            continue
        assert outcome(lexer, text) == outcome(reference_rsl_lexer, text), repr(text)
        compared += 1


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_generated_inputs_lex_alike(text):
    assume(not holds_non_decimal_digit(text))
    assert outcome(lexer, text) == outcome(reference_rsl_lexer, text)


def test_shipped_rules_lex_alike():
    paths = sorted(Path(default_rules_dir()).glob("*.rsl"))
    assert len(paths) == 15
    for path in paths:
        text = path.read_text(encoding="utf-8")
        tokens = outcome(lexer, text)
        assert isinstance(tokens, list) and tokens, path.name
        assert tokens == outcome(reference_rsl_lexer, text), path.name
