"""Record: the base class of mecheck's immutable value records.

A record's fields are the names in its class's own __slots__, in order;
a class between Record and a concrete record declares ``__slots__ = ()``,
or slots for values the record derives from its fields, which the
record's __init__ sets and which equality, hashing and repr ignore.
__init__ sets every field once, from positional or keyword arguments;
a record with default values writes its own __init__ and passes them on.
Records of the same class compare equal when their fields are equal,
hash by their fields, print as ``Name(field=value, ...)`` and reject
assignment to any attribute.

Model items are not records: they compare by identity (see
model/items.py).
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(args)}"
            )
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(kwargs))!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
