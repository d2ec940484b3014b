"""Item classes for the project model.

All items compare by identity (eq=False): within one model each class,
member, element, and call site is a single object, so identity is the
right equality for rule evaluation and cache keys.

A ClassItem's members are extracted by the model builder in the same
pass that finds the class; members() returns that one Members object.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class AnnotationUse:
    """One annotation occurrence, e.g. @RunWith(Suite.class).

    attrs maps attribute name to the list of its textual values; a bare
    single value is stored under "value".  Class-literal values keep the
    ``.class`` suffix, string values are unquoted.
    """

    name: str
    attrs: dict[str, list[str]] = field(default_factory=dict)
    line: int = 0

    def last_segment(self) -> str:
        return self.name.rsplit(".", 1)[-1]


@dataclass(eq=False)
class Param:
    type_name: str
    name: str


@dataclass(eq=False)
class MethodItem:
    name: str
    return_type: str
    params: tuple[Param, ...]
    annotations: tuple[AnnotationUse, ...]
    owner: "ClassItem"
    line: int

    @property
    def param_count(self) -> int:
        return len(self.params)


@dataclass(eq=False)
class ConstructorItem:
    params: tuple[Param, ...]
    annotations: tuple[AnnotationUse, ...]
    owner: "ClassItem"
    line: int

    @property
    def param_count(self) -> int:
        return len(self.params)


@dataclass(eq=False)
class FieldItem:
    name: str
    type_name: str
    annotations: tuple[AnnotationUse, ...]
    owner: "ClassItem"
    line: int


@dataclass(eq=False)
class CallSite:
    """A watched call, e.g. getBean("greeter").

    string_args holds one entry per source argument: the text of a string
    literal, a class literal rendered like "Foo.class", or None when the
    argument is any other expression.
    """

    callee_name: str
    string_args: tuple[str | None, ...]
    owner: "ClassItem"
    file_path: str
    line: int
    ordinal: int = 0


@dataclass(eq=False)
class Members:
    fields: tuple[FieldItem, ...]
    methods: tuple[MethodItem, ...]
    constructors: tuple[ConstructorItem, ...]
    call_sites: tuple[CallSite, ...]


@dataclass(eq=False)
class ClassItem:
    simple_name: str
    fqn: str
    kind: str  # "class" | "interface" | "enum" | "record"
    supertype_names: tuple[str, ...]
    annotations: tuple[AnnotationUse, ...]
    file_path: str
    line: int
    _members: Members = field(
        default_factory=lambda: Members((), (), (), ()), repr=False
    )

    def members(self) -> Members:
        """Fields, methods, constructors and watched call sites of this class."""
        return self._members


@dataclass(eq=False)
class XmlElement:
    """One XML element; name and attribute keys have namespace prefixes
    stripped."""

    name: str
    attrs: dict[str, str]
    line: int
    children: list["XmlElement"] = field(default_factory=list)
    file: "XmlFile | None" = field(default=None, repr=False)

    def iter_subtree(self):
        """This element and every descendant, in document order.

        Iterative, so nesting depth is not limited by the recursion limit.
        """
        stack = [self]
        while stack:
            elem = stack.pop()
            yield elem
            stack.extend(reversed(elem.children))


@dataclass(eq=False)
class XmlFile:
    path: str
    root: XmlElement

    def iter_elements(self):
        yield from self.root.iter_subtree()
