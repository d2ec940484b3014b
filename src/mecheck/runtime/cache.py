"""Memoization of built-in query calls.

One QueryCache is shared by every rule in a run over one model; results
for the same (function, arguments) pair are computed once.  Only the
model-reading built-ins are worth caching (the registry says which);
plain string helpers are cheaper than a key build.

Keys canonicalize arguments by stable identity: paths for files, FQNs
for classes, owner plus signature for members, file plus ordinal for
elements and call sites.  Scalars go in by value; bool is checked before
int because Python bools are ints.

The cache also holds the interpreter's exists indexes (exists_indexes),
so they live exactly as long as the cached query results they are built
over.  An index belongs to one `exists (T x in C) (f(x) == e)` node and
one container object C: it maps f(x) of each element to the element's
first position, so each evaluation of the node is a dict probe instead
of a scan.  The interpreter decides which predicates qualify and keeps
results, errors and counters equal to a scan's (see interpreter.py);
with no cache there are no indexes and every exists scans.
"""

from __future__ import annotations

import threading

from mecheck.model.items import (
    CallSite,
    ClassItem,
    ConstructorItem,
    FieldItem,
    MethodItem,
    XmlElement,
    XmlFile,
)
from mecheck.runtime.values import MISSING


class UncacheableArgument(Exception):
    pass


def canonical_value(value: object):
    if value is MISSING:
        return ("missing",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, str):
        return ("text", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", value)
    if isinstance(value, list):
        return ("list", tuple(canonical_value(v) for v in value))
    if isinstance(value, XmlFile):
        return ("xml-file", value.path)
    if isinstance(value, XmlElement):
        path = value.file.path if value.file is not None else ""
        return ("xml-element", path, value.ordinal)
    if isinstance(value, ClassItem):
        return ("class", value.fqn)
    if isinstance(value, MethodItem):
        return (
            "method",
            value.owner.fqn,
            value.name,
            tuple(p.type_name for p in value.params),
            value.line,
        )
    if isinstance(value, ConstructorItem):
        return (
            "constructor",
            value.owner.fqn,
            tuple(p.type_name for p in value.params),
            value.line,
        )
    if isinstance(value, FieldItem):
        return ("field", value.owner.fqn, value.name)
    if isinstance(value, CallSite):
        return ("call-site", value.file_path, value.line, value.callee_name, value.ordinal)
    raise UncacheableArgument(f"cannot build a cache key for {type(value).__name__}")


def canonical_key(name: str, args: list) -> tuple:
    return (name,) + tuple(canonical_value(a) for a in args)


class QueryCache:
    def __init__(self):
        self._store: dict[tuple, object] = {}
        self._lock = threading.Lock()
        # (id(exists node), id(container)) -> the interpreter's index;
        # each entry keeps its container alive, so no id is reused
        self.exists_indexes: dict[tuple[int, int], object] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: tuple, compute):
        with self._lock:
            if key in self._store:
                self.hits += 1
                return self._store[key]
        value = compute()
        with self._lock:
            if key in self._store:
                # another thread got there first; keep the stored value
                self.hits += 1
                return self._store[key]
            self.misses += 1
            self._store[key] = value
        return value

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}
