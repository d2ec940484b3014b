"""XML configuration file parsing.

Built on expat.  Elements keep document order, 1-based line numbers and
attribute order; character data is not kept.  Namespace prefixes are
stripped from element and attribute names; when two attributes share a
local name, the first one wins.

Each element's attrs is the dict expat builds for its start tag (in
document order, DTD-defaulted attributes last), kept as it is unless a
name in it has a prefix; only then is a new dict of local names built.
The XmlFile is made before parsing, so every element gets its file and
its line when it is created, in one pass.  A leaf's children is the one
shared empty tuple, which nothing may mutate; an element gets a list
when its first child starts.
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
    # Each open element, innermost last, under a holder whose children
    # take the root.
    holder = XmlElement("", {}, 0, (), xml_file)
    open_elems = [holder]
    push, pop = open_elems.append, open_elems.pop

    def on_start(name, attrs):
        if ":" in name:
            name = _local_name(name)
        if attrs and ":" in "".join(attrs):
            attrs = _local_attrs(attrs)
        elem = XmlElement(name, attrs, parser.CurrentLineNumber, (), xml_file)
        parent = open_elems[-1]
        if parent.children:
            parent.children.append(elem)
        else:  # its first child
            parent.children = [elem]
        push(elem)

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

    if not holder.children:
        raise MalformedXmlError(rel_path, "no root element", 1, 1)
    xml_file.root = holder.children[0]
    return xml_file
