"""Fixed reference work that measures how fast the host is right now.

    python3 bench/calibrate.py

run.py runs this between checks, each time in a fresh process, and
divides every check's wall time by the wall time of the calibration runs
around it.  The work is the same in every run and imports nothing of
mecheck, so a change to mecheck cannot change its time; only the host's
speed can.  It does the kinds of work a check does, in the standard
library only: a character-by-character tokenizer over Java-like text,
expat parsing of bean XML, tuple-keyed dictionary lookups and many
small objects.
"""

from __future__ import annotations

import sys
from xml.parsers import expat

ROUNDS = 20
CLASSES = 300
BEANS = 1500


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line


def java_text(n: int) -> str:
    return "\n".join(
        f"package p{i % 20};\n@Component(\"c{i}\")\npublic class C{i} extends B{i % 7} {{\n"
        f"    private int f{i} = {i * 31};\n"
        f"    public void setF{i}(int v) {{ this.f{i} = v; history.add(\"f{i}\"); }}\n}}"
        for i in range(n)
    )


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("id", text[i:j], line))
            i = j
        elif c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("num", text[i:j], line))
            i = j
        elif c == '"':
            j = text.index('"', i + 1) + 1
            out.append(Token("str", text[i:j], line))
            i = j
        else:
            out.append(Token("op", c, line))
            i += 1
    return out


def bean_xml(n: int) -> bytes:
    beans = "".join(
        f'<bean id="b{i}" class="p{i % 20}.C{i % CLASSES}" init-method="start">'
        f'<property name="f{i}" value="v{i % 997}"/><constructor-arg index="0" value="{i % 9}"/></bean>'
        for i in range(n)
    )
    return f"<beans>{beans}</beans>".encode()


def parse(data: bytes) -> list[tuple[str, dict[str, str]]]:
    elements: list[tuple[str, dict[str, str]]] = []
    parser = expat.ParserCreate()
    parser.StartElementHandler = lambda tag, attrs: elements.append((tag, attrs))
    parser.Parse(data, True)
    return elements


def lookups(tokens: list[Token], elements: list[tuple[str, dict[str, str]]]) -> int:
    cache: dict[tuple, bool] = {}
    names = {t.text for t in tokens if t.kind == "id"}
    hits = 0
    for tag, attrs in elements:
        for key, value in attrs.items():
            k = ("exists", tag, key, value[:3])
            if k in cache:
                hits += 1
            else:
                cache[k] = value in names or value.upper() in names
    return hits + len(cache)


def main() -> int:
    text, data = java_text(CLASSES), bean_xml(BEANS)
    total = 0
    for _ in range(ROUNDS):
        tokens = tokenize(text)
        elements = parse(data)
        total += len(tokens) + lookups(tokens, elements)
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
