"""Memoization of built-in query calls.

One QueryCache is shared by every rule in a run over one model; results
for the same (function, arguments) pair are computed once.  The registry
says which built-ins are cached, and only two kinds pay for a key build
and a lookup:

- every built-in that returns a list (getXMLs, getElms, getAttrs,
  getClasses, getMethods, ...).  The exists index is keyed by the
  container's identity, so a list a rule iterates must be the same
  object each time it is asked for;
- every built-in whose cost grows with the model or touches the disk
  (elementExists, locateClassSN, isUniqueSN, callExists, isLibraryClass,
  pathExists).

O(1) accessors such as getAttr, hasAttr or getName cost less than a
lookup and are not cached; nor are the plain string helpers.

Keys are (name, *args) with each argument by identity: model items are
unique objects per model (eq=False), so they go in as themselves, as do
str and MISSING.  bool, int and float are tagged with their type, since
True == 1 == 1.0 in a dict, and lists become tagged tuples of element
keys.

Rules run one at a time, so the cache takes no lock.

The cache also holds the interpreter's exists indexes (exists_indexes),
so they live exactly as long as the cached query results they are built
over.  An entry belongs to one `exists (T x in C) (f(x) == e)` node and
one container object C, and is built once, whole: a map from f(x) of each
element to the element's first position, so each evaluation of the node
is a dict probe instead of a scan, or None when f fails or gives a value
without an exact key at some element, so each evaluation scans.  The
interpreter decides which predicates qualify and keeps results, errors
and counters equal to a scan's (see interpreter.py); with no cache there
are no indexes and every exists scans.
"""

from __future__ import annotations

_TAGGED = frozenset([bool, int, float, list])
_ABSENT = object()


def _key_value(value: object):
    kind = type(value)
    if kind is list:
        return (list, tuple(map(_key_value, value)))
    if kind in _TAGGED:
        return (kind, value)
    return value


def canonical_key(name: str, args: list) -> tuple:
    for arg in args:
        if type(arg) in _TAGGED:
            return (name, *map(_key_value, args))
    return (name, *args)


class QueryCache:
    def __init__(self):
        self._store: dict[tuple, object] = {}
        # (id(exists node), id(container)) -> (node, container, index or
        # None); each entry keeps its node and container alive, so no id is reused
        self.exists_indexes: dict[tuple[int, int], object] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: tuple, compute, *args):
        """The value stored under key, or compute(*args) stored there."""
        value = self._store.get(key, _ABSENT)
        if value is not _ABSENT:
            self.hits += 1
            return value
        value = compute(*args)
        self.misses += 1
        self._store[key] = value
        return value

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}
