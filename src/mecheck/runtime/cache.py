"""Memoization of built-in query calls.

One QueryCache is shared by every rule in a run over one model; results
for the same (function, arguments) pair are computed once.  Two kinds of
call pay for a key build and a lookup:

- a call of a built-in the registry declares cached: one whose cost
  grows with the model or touches the disk, whether it gives a list
  (getElms, getFamily, getArg, getAnnotated) or not (elementExists,
  locateClassSN, isUniqueSN, callExists, isLibraryClass, pathExists);
- any call that is the container of an exists, whatever its built-in.
  The exists index is keyed by the container's identity, so such a list
  must be the same object each time it is asked for.

Accessors such as getAttr, hasAttr or getName, lists copied off one item
or the model (getAttrs, getMethods, getChildElms, getXMLs, ...) and the
plain string helpers cost about a lookup and are called directly where a
rule only reads them or iterates them with for.

Keys are (name, *args) with each argument by identity: model items are
unique objects per model (eq=False), so they go in as themselves, as do
str and MISSING.  bool, int and float are tagged with their type, since
True == 1 == 1.0 in a dict, and lists become tagged tuples of element
keys.

Rules run one at a time, so the cache takes no lock.

The cache also holds the interpreter's exists indexes (exists_indexes),
so they live exactly as long as the cached query results they are built
over.  An entry belongs to one `exists (T x in C) (f(x) == e)` node, or
one `exists (T a in A) (exists (U b in B(a)) (f(b) == e))` node, and one
container object (C or A), and is built once, whole: a map from f of each
element (of C, or of every B(a)) to the predicate evaluations a scan makes
up to its first such element, with the counts of a miss and of a failing
e, so each evaluation of the node is a dict probe instead of a scan; or
None when f fails or gives a value without an exact key at some element,
so each evaluation scans.  The interpreter decides which predicates
qualify and keeps results, errors and counters equal to a scan's (see
interpreter.py); with no cache there are no indexes and every exists
scans.
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
        # (id(exists node), id(container)) -> (node, container, (evaluations
        # at each key, of a miss, of a failing e) or None); each entry keeps
        # its node and container alive, so no id is reused
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
