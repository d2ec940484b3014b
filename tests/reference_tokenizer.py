"""Frozen copy of the original character-by-character Java tokenizer.

tests/test_javasrc.py compares mecheck.model.javasrc.tokenize_java against
it.  It yields (kind, text, line) triples; keep its logic unchanged,
except that identifiers follow Java's rule: they also start with letter
numbers, currency symbols and connectors, and the last two continue one.
"""

import unicodedata

IDENT = "ident"
PUNCT = "punct"
STRING = "string"
CHAR = "char"
NUMBER = "number"


def _is_ident_start(ch):
    return ch.isalpha() or ch in "_$" or unicodedata.category(ch) in ("Nl", "Sc", "Pc")


def _is_ident_char(ch):
    return ch.isalnum() or ch in "_$" or unicodedata.category(ch) in ("Sc", "Pc")


def tokenize(text):
    toks = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\f":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                break
            line += text.count("\n", i, end + 2)
            i = end + 2
            continue
        if text.startswith('"""', i):
            end = text.find('"""', i + 3)
            if end == -1:
                break
            body = text[i : end + 3]
            toks.append((STRING, body, line))
            line += body.count("\n")
            i = end + 3
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in ('"', "\n"):
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                else:
                    j += 1
            if j < n and text[j] == '"':
                toks.append((STRING, text[i : j + 1], line))
                i = j + 1
            else:
                i = j
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] not in ("'", "\n"):
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                else:
                    j += 1
            if j < n and text[j] == "'":
                toks.append((CHAR, text[i : j + 1], line))
                i = j + 1
            else:
                i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._"):
                if text[j] == "." and not (j + 1 < n and text[j + 1].isdigit()):
                    break
                j += 1
            toks.append((NUMBER, text[i:j], line))
            i = j
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            toks.append((IDENT, text[i:j], line))
            i = j
            continue
        toks.append((PUNCT, ch, line))
        i += 1
    return toks
