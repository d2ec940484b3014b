"""Runtime values and the missing-value sentinel.

Rule evaluation works over plain Python values (str, bool, int, float,
list) plus the model item classes and MISSING.  MISSING marks an absent
piece of data (attribute not present, annotation attribute unset).  It
is falsy in boolean position, compares equal only to itself, and renders
as "<missing>" in messages.
"""

from __future__ import annotations

from mecheck.model.items import (
    CallSite,
    ClassItem,
    ConstructorItem,
    FieldItem,
    MethodItem,
    XmlElement,
    XmlFile,
)


class _Missing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<missing>"

    def __bool__(self):
        return False


MISSING = _Missing()


class ValueTypeError(Exception):
    """A value of the wrong kind reached an operation."""


def kind_name(value: object) -> str:
    if value is MISSING:
        return "missing"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, str):
        return "text"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, list):
        return "list"
    if isinstance(value, XmlFile):
        return "file"
    if isinstance(value, XmlElement):
        return "element"
    if isinstance(value, ClassItem):
        return "class"
    if isinstance(value, MethodItem):
        return "method"
    if isinstance(value, ConstructorItem):
        return "constructor"
    if isinstance(value, FieldItem):
        return "field"
    if isinstance(value, CallSite):
        return "callsite"
    return type(value).__name__


def is_truthy(value: object) -> bool:
    """Boolean coercion in conditions: bools pass through, MISSING is
    false; anything else is a type error."""
    if value is MISSING:
        return False
    if isinstance(value, bool):
        return value
    raise ValueTypeError(f"expected a boolean condition, got {kind_name(value)}")


def value_eq(a: object, b: object) -> bool:
    """The == operator of the rule language.

    MISSING equals only MISSING.  Scalars compare by value within the
    same kind, model items by identity; values of different kinds are
    unequal rather than an error.
    """
    if a is MISSING or b is MISSING:
        return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(value_eq(x, y) for x, y in zip(a, b))
    return a is b


# Values whose Python hash and == agree exactly with value_eq: MISSING,
# bool and str compare by value, model items (eq=False) by identity.
# Numbers are left out (1 == 1.0 == True in Python), and so are lists.
_INDEX_KEY_TYPES = frozenset(
    [_Missing, bool, str, XmlFile, XmlElement, ClassItem, MethodItem,
     ConstructorItem, FieldItem, CallSite]
)


def index_key(value: object):
    """A dict key for value such that two keys are equal exactly when
    value_eq holds, or None for a value that has no such key."""
    return value if type(value) in _INDEX_KEY_TYPES else None


def display(value: object) -> str:
    """Render a value for bug-report messages."""
    if value is MISSING:
        return "<missing>"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(display(v) for v in value) + "]"
    if isinstance(value, XmlFile):
        return value.path
    if isinstance(value, XmlElement):
        ident = value.attrs.get("id")
        if ident is not None:
            return f'<{value.name} id="{ident}">'
        return f"<{value.name}>"
    if isinstance(value, ClassItem):
        return value.fqn
    if isinstance(value, MethodItem):
        return value.name
    if isinstance(value, FieldItem):
        return value.name
    if isinstance(value, ConstructorItem):
        return f"{value.owner.simple_name}(...)"
    if isinstance(value, CallSite):
        return f"{value.callee_name}(...)"
    return str(value)


def location_of(value: object) -> tuple[str, int] | None:
    """(file path, line) for values that carry a source position."""
    if isinstance(value, XmlElement):
        path = value.file.path if value.file is not None else ""
        return (path, value.line)
    if isinstance(value, XmlFile):
        return (value.path, value.root.line)
    if isinstance(value, ClassItem):
        return (value.file_path, value.line)
    if isinstance(value, (MethodItem, FieldItem, ConstructorItem)):
        return (value.owner.file_path, value.line)
    if isinstance(value, CallSite):
        return (value.file_path, value.line)
    return None
