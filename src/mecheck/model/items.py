"""Item classes for the project model.

All items compare and hash by identity: within one model each class,
member, element, and call site is a single object, so identity is the
right equality for rule evaluation and cache keys.  Items are plain
classes with __slots__, so the tens of thousands a large project has
carry no instance dict.

A ClassItem's members are extracted by the model builder in the same
pass that finds the class; members() returns that one Members object.
Their names, types and parameter names are interned strings.  A parsed
XmlElement without children holds the shared empty tuple, which nothing
may mutate; one built directly gets a new list by default.
"""

from __future__ import annotations


class AnnotationUse:
    """One annotation occurrence, e.g. @RunWith(Suite.class).

    attrs maps attribute name to the list of its textual values; a bare
    single value is stored under "value".  Class-literal values keep the
    ``.class`` suffix, string values are unquoted.
    """

    __slots__ = ("name", "attrs", "line")

    def __init__(self, name: str, attrs: dict[str, list[str]] | None = None, line: int = 0):
        self.name = name
        self.attrs = {} if attrs is None else attrs
        self.line = line

    def last_segment(self) -> str:
        return self.name.rsplit(".", 1)[-1]


class Param:
    __slots__ = ("type_name", "name")

    def __init__(self, type_name: str, name: str):
        self.type_name = type_name
        self.name = name


class MethodItem:
    __slots__ = ("name", "return_type", "params", "annotations", "owner", "line")

    def __init__(self, name: str, return_type: str, params: tuple[Param, ...],
                 annotations: tuple[AnnotationUse, ...], owner: ClassItem, line: int):
        self.name = name
        self.return_type = return_type
        self.params = params
        self.annotations = annotations
        self.owner = owner
        self.line = line

    @property
    def param_count(self) -> int:
        return len(self.params)


class ConstructorItem:
    __slots__ = ("params", "annotations", "owner", "line")

    def __init__(self, params: tuple[Param, ...], annotations: tuple[AnnotationUse, ...],
                 owner: ClassItem, line: int):
        self.params = params
        self.annotations = annotations
        self.owner = owner
        self.line = line

    @property
    def param_count(self) -> int:
        return len(self.params)


class FieldItem:
    __slots__ = ("name", "type_name", "annotations", "owner", "line")

    def __init__(self, name: str, type_name: str, annotations: tuple[AnnotationUse, ...],
                 owner: ClassItem, line: int):
        self.name = name
        self.type_name = type_name
        self.annotations = annotations
        self.owner = owner
        self.line = line


class CallSite:
    """A watched call, e.g. getBean("greeter").

    string_args holds one entry per source argument: the text of a string
    literal, a class literal rendered like "Foo.class", or None when the
    argument is any other expression.
    """

    __slots__ = ("callee_name", "string_args", "owner", "file_path", "line", "ordinal")

    def __init__(self, callee_name: str, string_args: tuple[str | None, ...], owner: ClassItem,
                 file_path: str, line: int, ordinal: int = 0):
        self.callee_name = callee_name
        self.string_args = string_args
        self.owner = owner
        self.file_path = file_path
        self.line = line
        self.ordinal = ordinal


class Members:
    __slots__ = ("fields", "methods", "constructors", "call_sites")

    def __init__(self, fields: tuple[FieldItem, ...], methods: tuple[MethodItem, ...],
                 constructors: tuple[ConstructorItem, ...], call_sites: tuple[CallSite, ...]):
        self.fields = fields
        self.methods = methods
        self.constructors = constructors
        self.call_sites = call_sites


class ClassItem:
    __slots__ = (
        "simple_name", "fqn", "kind", "supertype_names", "annotations",
        "file_path", "line", "_members",
    )

    def __init__(self, simple_name: str, fqn: str, kind: str, supertype_names: tuple[str, ...],
                 annotations: tuple[AnnotationUse, ...], file_path: str, line: int,
                 _members: Members | None = None):
        self.simple_name = simple_name
        self.fqn = fqn
        self.kind = kind  # "class" | "interface" | "enum" | "record"
        self.supertype_names = supertype_names
        self.annotations = annotations
        self.file_path = file_path
        self.line = line
        self._members = Members((), (), (), ()) if _members is None else _members

    def members(self) -> Members:
        """Fields, methods, constructors and watched call sites of this class."""
        return self._members


class XmlElement:
    """One XML element; name and attribute keys have namespace prefixes
    stripped."""

    __slots__ = ("name", "attrs", "line", "children", "file")

    def __init__(self, name: str, attrs: dict[str, str], line: int,
                 children: list[XmlElement] | tuple[()] | None = None,
                 file: XmlFile | None = None):
        self.name = name
        self.attrs = attrs
        self.line = line
        self.children = [] if children is None else children
        self.file = file

    def iter_subtree(self):
        """This element and every descendant, in document order.

        Iterative, so nesting depth is not limited by the recursion limit.
        """
        stack = [self]
        while stack:
            elem = stack.pop()
            yield elem
            stack.extend(reversed(elem.children))


class XmlFile:
    __slots__ = ("path", "root")

    def __init__(self, path: str, root: XmlElement):
        self.path = path
        self.root = root

    def iter_elements(self):
        yield from self.root.iter_subtree()
