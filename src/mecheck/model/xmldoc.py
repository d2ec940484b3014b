"""XML configuration file parsing.

Built on expat.  Elements keep document order, 1-based line numbers and
attribute order; character data is not kept.  Namespace prefixes are
stripped from element and attribute names; when two attributes share a
local name, the first one wins.
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


def parse_xml(abs_path: Path, rel_path: str) -> XmlFile:
    """Parse one XML file into an XmlFile tree.

    Raises MalformedXmlError for unreadable or ill-formed input.
    """
    try:
        data = abs_path.read_bytes()
    except OSError as exc:
        raise MalformedXmlError(rel_path, f"cannot read file: {exc}", 0, 0) from exc

    parser = expat.ParserCreate()
    parser.ordered_attributes = True

    stack: list[XmlElement] = []
    root_holder: list[XmlElement] = []

    def on_start(raw_name, attr_list):
        attrs: dict[str, str] = {}
        for i in range(0, len(attr_list), 2):
            local = _local_name(attr_list[i])
            if local not in attrs:
                attrs[local] = attr_list[i + 1]
        elem = XmlElement(name=_local_name(raw_name), attrs=attrs, line=parser.CurrentLineNumber)
        if stack:
            stack[-1].children.append(elem)
        else:
            root_holder.append(elem)
        stack.append(elem)

    def on_end(raw_name):
        stack.pop()

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

    if not root_holder:
        raise MalformedXmlError(rel_path, "no root element", 1, 1)

    xml_file = XmlFile(path=rel_path, root=root_holder[0])
    for elem in xml_file.iter_elements():
        elem.file = xml_file
    return xml_file
