"""XML configuration file parsing.

Built on expat.  Elements keep document order, 1-based line numbers and
attribute order; character data is not kept.  Namespace prefixes are
stripped from element and attribute names; when two attributes share a
local name, the first one wins.

Each element's attrs is the dict expat builds for its start tag (in
document order, DTD-defaulted attributes last), kept as it is unless a
name in it has a prefix; only then is a new dict of local names built.
The XmlFile is made before parsing, so every element gets its file, its
parent's children list and its line when it is created, in one pass.
"""

from __future__ import annotations

from pathlib import Path
from xml.parsers import expat

from mecheck.model.items import XmlElement, XmlFile


class MalformedXmlError(Exception):
    def __init__(self, path: str, reason: str, line: int, column: int):
        super().__init__(f"{path}: {reason} at line {line}, column {column}")
        self.path = path
        self.reason = reason
        self.line = line
        self.column = column


def _local_name(raw: str) -> str:
    return raw.rsplit(":", 1)[-1]


def _local_attrs(attrs: dict[str, str]) -> dict[str, str]:
    """attrs keyed by local names; the first of two equal ones wins."""
    local: dict[str, str] = {}
    for name, value in attrs.items():
        local.setdefault(_local_name(name), value)
    return local


def parse_xml(abs_path: Path, rel_path: str) -> XmlFile:
    """Parse one XML file into an XmlFile tree.

    Raises MalformedXmlError for unreadable or ill-formed input.
    """
    try:
        data = abs_path.read_bytes()
    except OSError as exc:
        raise MalformedXmlError(rel_path, f"cannot read file: {exc}", 0, 0) from exc

    parser = expat.ParserCreate()
    xml_file = XmlFile(rel_path, None)
    # The children list of each open element, innermost last; the first
    # list takes the root.
    top: list[XmlElement] = []
    open_lists = [top]
    push, pop = open_lists.append, open_lists.pop

    def on_start(name, attrs):
        if ":" in name:
            name = _local_name(name)
        if attrs and ":" in "".join(attrs):
            attrs = _local_attrs(attrs)
        elem = XmlElement(name, attrs, parser.CurrentLineNumber, [], xml_file)
        open_lists[-1].append(elem)
        push(elem.children)

    def on_end(name):
        pop()

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end

    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise MalformedXmlError(
            rel_path,
            expat.errors.messages[exc.code],
            exc.lineno,
            exc.offset + 1,
        ) from exc
    finally:
        # The handlers refer to the parser; dropping them breaks that
        # cycle, so the parser is freed when this returns, not by a
        # cyclic garbage collection.
        parser.StartElementHandler = parser.EndElementHandler = None

    if not top:
        raise MalformedXmlError(rel_path, "no root element", 1, 1)
    xml_file.root = top[0]
    return xml_file
