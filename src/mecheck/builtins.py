"""The built-in query functions available to rules.

Forty-three functions over the project model, in four groups: code
elements, annotations, XML, and plain string/path helpers.  A Registry
owns per-run configuration (library class patterns, resource roots) and
dispatches every call through Registry.call.

Each built-in is declared once, by the @builtin decorator on its
implementation.  The declaration gives:
- its name and arity;
- the kind each leading argument must have (TEXT, CLASS, ELEMENT, ...);
  the body checks the rest itself, as with the integer-like arguments of
  getArg, indexInBound and substring and the arguments of join;
- the positions where a MISSING argument short-circuits, and the result
  returned then;
- the kind of its result (BOOL, TEXT_OR_MISSING, LIST, ...); the rule
  compiler uses a call of a BOOL built-in as a condition without a truth
  check;
- whether results go through the query cache.

Each declaration is turned, once, into a checked entry: one closure,
chosen by the number of kinds the declaration checks, that checks
arity, then MISSING, then the kinds, in that order, each written out
with no loop over the declaration, and only then runs the body; it puts
the built-in's name into the BuiltinTypeError and PreconditionError the
body raises.  Registry.call looks the name up and calls that entry; it
is the one dispatch point, so a wrapper on it sees every call.  The rule
validator reads arity from the same records.  Cached are the built-ins
whose cost grows with the model or touches the disk: the model-wide
lists (getElms, getFamily, getArg, getAnnotated) and the model-wide
queries (elementExists, locateClassSN, isUniqueSN, callExists,
isLibraryClass, pathExists).  Accessors, lists copied off one item or
the model (getAttrs, getMethods, getChildElms, getXMLs, ...) and the
string helpers cost about a cache lookup and are called directly; the
interpreter still caches any call that is an exists container, whose
index is keyed by the container object.

Missing-value policy: predicates return false when a required input is
MISSING, string transformers return MISSING, element/list getters return
an empty list.  That keeps rules free of false positives when optional
metadata is absent, at the cost of silently skipping such items.
README's "Built-in functions" section lists every built-in's kinds, its
result and its result on a missing argument.
"""

from __future__ import annotations

import functools
import re
import sys
from collections.abc import Callable
from pathlib import Path

from mecheck.model.items import (
    AnnotationUse,
    CallSite,
    ClassItem,
    ConstructorItem,
    FieldItem,
    MethodItem,
    XmlElement,
    XmlFile,
)
from mecheck.model.project import ProjectModel
from mecheck.record import Record
from mecheck.runtime.values import MISSING, LocatedText, kind_name

DEFAULT_RESOURCE_ROOTS = ("src/main/resources", "src/test/resources", "WEB-INF")

ITERABLE_BASE_NAMES = frozenset(
    ["List", "ArrayList", "LinkedList", "Collection", "Iterable", "Set", "HashSet", "Stream"]
)


class UnknownBuiltinError(Exception):
    def __init__(self, name: str):
        super().__init__(f"unknown built-in function '{name}'")
        self.name = name


# The stop of an unbounded arity range.
UNBOUNDED = sys.maxsize


def arity_message(name: str, arity: range, got: int) -> str:
    """The complaint about calling `name` with `got` arguments; shared by
    Registry.call and the rule compiler's diagnostics."""
    low = arity.start
    if arity.stop == UNBOUNDED:
        expected = f"at least {low}"
    elif arity.stop == low + 1:
        expected = str(low)
    else:
        expected = f"{low} to {arity.stop - 1}"
    return f"'{name}' takes {expected} argument(s), got {got}"


class BuiltinArityError(Exception):
    def __init__(self, name: str, arity: range, got: int):
        super().__init__(arity_message(name, arity, got))
        self.name = name


class BuiltinTypeError(Exception):
    """Argument arg_index has the wrong kind.  Bodies raise it without the
    built-in's name; Registry.call fills the name in."""

    name = "?"

    def __init__(self, arg_index: int, expected: str, got: str):
        super().__init__(arg_index, expected, got)

    def __str__(self):
        arg_index, expected, got = self.args
        return f"'{self.name}' argument {arg_index + 1} must be {expected}, got {got}"


class PreconditionError(Exception):
    """Arguments of the right kinds that the built-in cannot answer for;
    Registry.call fills in the name."""

    name = "?"

    def __str__(self):
        return f"'{self.name}': {self.args[0]}"


# What Registry.call raises for a bad call; the interpreter turns each
# into a rule error at the call's position.
CALL_ERRORS = (UnknownBuiltinError, BuiltinArityError, BuiltinTypeError, PreconditionError)


class PatternFileError(Exception):
    pass


class LibraryPatternSet:
    """Anchored regular expressions naming known library classes.

    A fully-qualified name counts as a library class when any pattern
    matches the whole name.
    """

    def __init__(self, patterns: list[str]):
        self._compiled = []
        for pat in patterns:
            try:
                self._compiled.append(re.compile(pat))
            except re.error as exc:
                raise PatternFileError(f"bad pattern {pat!r}: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "LibraryPatternSet":
        """One pattern per line; blank lines and '#' comments ignored."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise PatternFileError(f"cannot read pattern file {path}: {exc}") from exc
        patterns = []
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                patterns.append(line)
        return cls(patterns)

    @classmethod
    def default(cls) -> "LibraryPatternSet":
        return cls.from_file(Path(__file__).parent / "data" / "library-classes.txt")

    def matches(self, fqn: str) -> bool:
        return any(p.fullmatch(fqn) for p in self._compiled)


def resolve_resource_path(
    raw: str, model: ProjectModel, resource_roots: tuple[str, ...] = DEFAULT_RESOURCE_ROOTS
) -> str | None:
    """Resolve a configuration-file location string to a project path.

    Tries, in order: the path relative to the project root, the path
    under each resource root, and finally a basename match against the
    model's XML files (an ambiguous basename still counts as found).
    A leading "classpath:" marker and leading slashes are stripped.  A
    path the file system cannot even look up is not in the project.

    A location holding '*' or '?' is an Ant-style pattern, as Spring's
    PathMatchingResourcePatternResolver reads it: '?' is one character
    and '*' any run of them within one path segment, and a '**' segment
    spans any number of segments.  It is found when it matches the path of
    one of the model's XML files, relative to the project root or to a
    resource root, or when its last segment matches such a file's
    basename.
    Returns the resolved relative path, or None.
    """
    cleaned = raw.strip()
    for prefix in ("classpath*:", "classpath:"):
        if cleaned.startswith(prefix):
            cleaned = cleaned[len(prefix) :]
            break
    cleaned = cleaned.lstrip("/")
    if not cleaned or ".." in Path(cleaned).parts:
        return None
    if "*" in cleaned or "?" in cleaned:
        return _match_resource_pattern(cleaned, model, resource_roots)
    candidates = [cleaned] + [f"{root}/{cleaned}" for root in resource_roots]
    for cand in candidates:
        try:
            if (model.root / cand).is_file():
                return cand
        except OSError:  # a name the file system refuses, such as one too long
            continue
    base = cleaned.rsplit("/", 1)[-1]
    for xf in model.xml_files:
        if xf.path.rsplit("/", 1)[-1] == base:
            return xf.path
    return None


def _match_resource_pattern(pattern: str, model: ProjectModel,
                            resource_roots: tuple[str, ...]) -> str | None:
    """The first of the model's XML files that an Ant-style location
    pattern names, by its path or by its basename; None if none."""
    whole = _ant_matcher(pattern)
    last = _ant_matcher(pattern.rsplit("/", 1)[-1])
    prefixes = [f"{root.strip('/')}/" for root in resource_roots]
    for xf in model.xml_files:
        path = xf.path
        if whole(path) or last(path.rsplit("/", 1)[-1]):
            return path
        for prefix in prefixes:
            if path.startswith(prefix) and whole(path[len(prefix):]):
                return path
    return None


def _ant_matcher(pattern: str) -> Callable[[str], object]:
    """The full-match test of an Ant-style path pattern."""
    segments = pattern.split("/")
    parts = []
    for i, segment in enumerate(segments):
        last = i == len(segments) - 1
        if segment == "**":
            parts.append(".*" if last else "(?:[^/]*/)*")
            continue
        parts.append("".join("[^/]*" if ch == "*" else "[^/]" if ch == "?" else re.escape(ch)
                             for ch in segment))
        if not last:
            parts.append("/")
    return re.compile("".join(parts)).fullmatch


# Distinct glob texts a run keeps compiled; rules that build patterns at
# run time can ask for more, and the least recently used are dropped.
GLOB_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=GLOB_MEMO_SIZE)
def _glob_matcher(glob: str) -> Callable[[str], object]:
    """A name -> truthy test for a glob in which '*' matches any run of
    characters: plain equality when there is no '*'."""
    if "*" not in glob:
        return glob.__eq__
    parts = glob.split("*")
    return re.compile(re.escape(parts[0]) +
                      "".join(".*" + re.escape(p) for p in parts[1:])).fullmatch


@functools.lru_cache(maxsize=GLOB_MEMO_SIZE)
def _element_matcher(text: str) -> Callable[[str], object]:
    """The test for an element-name glob; "<bean>" means "bean"."""
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    return _glob_matcher(text)


# upperCase's table: ASCII a-z to A-Z; every other character stays as is.
_ASCII_UPPER = str.maketrans("abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")

# The range of a Java int, which bounds the text _int_like reads.
INT_MIN, INT_MAX = -(2**31), 2**31 - 1

# Argument kinds: the accepted types and the text an error gives for them.
TEXT = (str, "text")
XML_NODE = ((XmlFile, XmlElement), "an XML file or element")
ELEMENT = (XmlElement, "an XML element")
CLASS = (ClassItem, "a class")
METHOD = (MethodItem, "a method")
FIELD = (FieldItem, "a field")
CALLABLE = ((MethodItem, ConstructorItem), "a method or constructor")
ANNOTATED = ((ClassItem, MethodItem, FieldItem, ConstructorItem),
             "a class, method, field, or constructor")
NAMED = ((ClassItem, MethodItem, FieldItem, ConstructorItem, XmlFile, XmlElement),
         "a class, method, field, constructor, XML file, or XML element")
CLASS_OR_TEXT = ((ClassItem, str), "a class or text")
SITE_OR_TEXT = ((CallSite, str), "a call site or text")
TEXT_OR_LIST = ((str, list), "text or a list")

# Result kinds: the types a call that does not raise returns, and their text.
BOOL = (bool, "a bool")
INTEGER = (int, "an integer")
TEXT_OR_MISSING = ((str, type(MISSING)), "text or missing")
LIST = (list, "a list")
ANY = (object, "any value")


class _Derived(Record):
    """The slot of what a Builtin derives from its fields: it is not a
    field, so records compare, hash and rebuild without it."""

    __slots__ = ("entry",)
    entry: Callable


class Builtin(_Derived):
    """One built-in: its contract and its implementation.

    Its entry, built with the record, runs fn(registry, model, args) only
    when len(args) is in arity, no position in missing holds MISSING (else
    the call returns on_missing, a fresh list for a list), and each
    (position, types, expected) of checks holds an instance of types.
    result is the kind of what fn and on_missing give.
    """

    __slots__ = ("name", "fn", "arity", "checks", "missing", "on_missing", "cached", "result")
    name: str
    fn: Callable
    arity: range
    checks: tuple[tuple[int, type | tuple[type, ...], str], ...]
    missing: tuple[int, ...]
    on_missing: object
    cached: bool
    result: tuple

    def __init__(self, name: str, fn: Callable, arity: range,
                 checks: tuple[tuple[int, type | tuple[type, ...], str], ...] = (),
                 missing: tuple[int, ...] = (), on_missing: object = None, cached: bool = False,
                 result: tuple = ANY):
        super().__init__(name, fn, arity, checks, missing, on_missing, cached, result)
        object.__setattr__(self, "entry", _checked_entry(name, fn, arity, checks, missing,
                                                         on_missing))


def _checked_entry(name: str, fn: Callable, arity: range,
                   checks: tuple[tuple[int, type | tuple[type, ...], str], ...],
                   missing: tuple[int, ...], on_missing: object) -> Callable:
    """The entry(registry, model, args) a Builtin record dispatches to: fn
    behind the record's checks, made in this order: len(args) in arity; a
    MISSING at a position in missing returns on_missing (a fresh list for
    a list); the argument at each position of checks has its kind.  It
    puts name into the BuiltinTypeError and PreconditionError fn raises.

    Every check is written out, with no loop over the record: the entry is
    one of four closures, by the number of kinds checked, and it reads
    missing as a pair of positions (one position is read twice)."""
    if len(missing) > 2 or len(checks) > 3:
        raise ValueError(f"built-in '{name}' declares more than 2 MISSING positions or 3 kinds")
    low, stop = arity.start, arity.stop
    m0, m1 = (missing * 2)[:2] if missing else (0, 0)
    fresh_list = type(on_missing) is list
    # checks padded to three; an entry reads only as many as there are
    (p0, t0, _), (p1, t1, _), (p2, t2, _) = (checks + ((0, object, ""),) * 3)[:3]

    if not checks:
        def entry(registry, model, args):
            if not low <= len(args) < stop:
                raise BuiltinArityError(name, arity, len(args))
            if missing and (args[m0] is MISSING or args[m1] is MISSING):
                return [] if fresh_list else on_missing
            try:
                return fn(registry, model, args)
            except (BuiltinTypeError, PreconditionError) as exc:
                exc.name = name
                raise
    elif len(checks) == 1:
        def entry(registry, model, args):
            if not low <= len(args) < stop:
                raise BuiltinArityError(name, arity, len(args))
            if missing and (args[m0] is MISSING or args[m1] is MISSING):
                return [] if fresh_list else on_missing
            if not isinstance(args[p0], t0):
                raise _kind_error(name, checks, args)
            try:
                return fn(registry, model, args)
            except (BuiltinTypeError, PreconditionError) as exc:
                exc.name = name
                raise
    elif len(checks) == 2:
        def entry(registry, model, args):
            if not low <= len(args) < stop:
                raise BuiltinArityError(name, arity, len(args))
            if missing and (args[m0] is MISSING or args[m1] is MISSING):
                return [] if fresh_list else on_missing
            if not (isinstance(args[p0], t0) and isinstance(args[p1], t1)):
                raise _kind_error(name, checks, args)
            try:
                return fn(registry, model, args)
            except (BuiltinTypeError, PreconditionError) as exc:
                exc.name = name
                raise
    else:
        def entry(registry, model, args):
            if not low <= len(args) < stop:
                raise BuiltinArityError(name, arity, len(args))
            if missing and (args[m0] is MISSING or args[m1] is MISSING):
                return [] if fresh_list else on_missing
            if not (isinstance(args[p0], t0) and isinstance(args[p1], t1)
                    and isinstance(args[p2], t2)):
                raise _kind_error(name, checks, args)
            try:
                return fn(registry, model, args)
            except (BuiltinTypeError, PreconditionError) as exc:
                exc.name = name
                raise
    return entry


def _kind_error(name: str, checks: tuple, args: list) -> BuiltinTypeError:
    """The error for the first argument in checks that lacks its kind."""
    i, _, expected = next(c for c in checks if not isinstance(args[c[0]], c[1]))
    exc = BuiltinTypeError(i, expected, kind_name(args[i]))
    exc.name = name
    return exc


# Every built-in, by name, filled by @builtin.
BUILTINS: dict[str, Builtin] = {}


def builtin(
    name: str,
    arity: int | tuple[int, int | None],
    *kinds: tuple,
    result: tuple,
    missing: tuple[int, ...] = (),
    on_missing: object = None,
    cached: bool = False,
):
    """Declare the decorated Registry method as the built-in `name`.

    arity is a count or (min, max), max None for no limit; kinds gives the
    kinds of the leading arguments; result is the kind of what it returns;
    a MISSING argument at a position in missing makes the call return
    on_missing; cached routes results through the query cache.
    """
    low, high = (arity, arity) if isinstance(arity, int) else arity
    checks = tuple((i, *kind) for i, kind in enumerate(kinds))

    def register(fn):
        BUILTINS[name] = Builtin(
            name, fn, range(low, UNBOUNDED if high is None else high + 1),
            checks, missing, on_missing, cached, result,
        )
        return fn

    return register


def _int_like(args: list, i: int) -> int:
    """args[i] as an integer: an int, or text that Java's Integer.parseInt
    reads: an optional sign, then decimal digits (any Unicode decimal
    digit, as Character.digit reads them), with no '_' or blanks, and a
    value that fits in 32 bits."""
    v = args[i]
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        digits = v[1:] if v[:1] in ("+", "-") else v
        if digits.isdecimal():
            value = int(v)
            if INT_MIN <= value <= INT_MAX:
                return value
    raise BuiltinTypeError(i, "an integer", kind_name(v))


def _scope_matches(node: XmlFile | XmlElement, match: Callable[[str], object],
                   first_only: bool) -> list[XmlElement]:
    """The elements of node's search scope whose names match, in document
    order (only the first when first_only).  A file's scope includes its
    root; an element's holds only its descendants.  One walk with an
    explicit stack, so nesting depth is not limited by recursion."""
    stack = [node.root] if isinstance(node, XmlFile) else [*reversed(node.children)]
    found = []
    pop, push = stack.pop, stack.extend
    while stack:
        elem = pop()
        if match(elem.name):
            found.append(elem)
            if first_only:
                break
        children = elem.children
        if children:
            push(reversed(children))
    return found


class Registry:
    """Dispatch table for built-in functions.

    One Registry serves a whole run; every call receives the model
    explicitly so the registry itself stays reusable across models.
    builtins is the table call dispatches through.
    """

    def __init__(
        self,
        lib_patterns: LibraryPatternSet | None = None,
        resource_roots: tuple[str, ...] = DEFAULT_RESOURCE_ROOTS,
    ):
        self.lib_patterns = lib_patterns or LibraryPatternSet.default()
        self.resource_roots = tuple(resource_roots)
        self.builtins: dict[str, Builtin] = BUILTINS

    def call(self, name: str, args: list, model: ProjectModel):
        try:
            entry = self.builtins[name].entry
        except KeyError:
            raise UnknownBuiltinError(name) from None
        return entry(self, model, args)

    # -- XML group -------------------------------------------------------------

    @builtin("getXMLs", 0, result=LIST)
    def _get_xmls(self, model, args):
        return list(model.xml_files)

    @builtin("getElms", 2, XML_NODE, TEXT, result=LIST, missing=(0,), on_missing=[], cached=True)
    def _get_elms(self, model, args):
        return _scope_matches(args[0], _element_matcher(args[1]), False)

    @builtin("getChildElms", 2, XML_NODE, TEXT, result=LIST, missing=(0,), on_missing=[])
    def _get_child_elms(self, model, args):
        """The node's children whose names match, in document order; a
        file's only child is its root."""
        match = _element_matcher(args[1])
        children = [args[0].root] if isinstance(args[0], XmlFile) else args[0].children
        return [elem for elem in children if match(elem.name)]

    @builtin("elementExists", 2, XML_NODE, TEXT, result=BOOL,
             missing=(0,), on_missing=False, cached=True)
    def _element_exists(self, model, args):
        return bool(_scope_matches(args[0], _element_matcher(args[1]), True))

    @builtin("getAttr", 2, ELEMENT, TEXT, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _get_attr(self, model, args):
        return args[0].attrs.get(args[1], MISSING)

    @builtin("getAttrs", 2, ELEMENT, TEXT, result=LIST, missing=(0,), on_missing=[])
    def _get_attrs(self, model, args):
        match = _glob_matcher(args[1])
        return [v for k, v in args[0].attrs.items() if match(k)]

    @builtin("hasAttr", 2, ELEMENT, TEXT, result=BOOL, missing=(0,), on_missing=False)
    def _has_attr(self, model, args):
        return args[1] in args[0].attrs

    # -- code elements ----------------------------------------------------------

    @builtin("getClasses", 0, result=LIST)
    def _get_classes(self, model, args):
        return list(model.classes)

    @builtin("classExists", 1, TEXT, result=BOOL, missing=(0,), on_missing=False)
    def _class_exists(self, model, args):
        return args[0] in model.class_by_fqn

    @builtin("locateClassFQN", 1, TEXT, result=CLASS)
    def _locate_class_fqn(self, model, args):
        cls = model.class_by_fqn.get(args[0])
        if cls is None:
            raise PreconditionError(f"no class named {args[0]}")
        return cls

    @builtin("locateClassSN", 1, TEXT, result=CLASS, cached=True)
    def _locate_class_sn(self, model, args):
        matches = model.classes_by_sn.get(args[0], [])
        if len(matches) != 1:
            raise PreconditionError(f"simple name {args[0]} matches {len(matches)} classes")
        return matches[0]

    @builtin("isUniqueSN", 1, TEXT, result=BOOL, missing=(0,), on_missing=False, cached=True)
    def _is_unique_sn(self, model, args):
        return len(model.classes_by_sn.get(args[0], [])) == 1

    @builtin("getSN", 1, CLASS_OR_TEXT, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _get_sn(self, model, args):
        v = args[0]
        return v.simple_name if isinstance(v, ClassItem) else v.rsplit(".", 1)[-1]

    @builtin("getFQN", 1, CLASS, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _get_fqn(self, model, args):
        return args[0].fqn

    @builtin("getName", 1, NAMED, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _get_name(self, model, args):
        v = args[0]
        if isinstance(v, ClassItem):
            return v.simple_name
        if isinstance(v, ConstructorItem):
            return v.owner.simple_name
        if isinstance(v, XmlFile):
            return v.path
        return v.name  # a method, field or element

    @builtin("getType", 1, FIELD, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _get_type(self, model, args):
        return args[0].type_name

    @builtin("getReturnType", 1, METHOD, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _get_return_type(self, model, args):
        return args[0].return_type

    @builtin("getMethods", 1, CLASS, result=LIST, missing=(0,), on_missing=[])
    def _get_methods(self, model, args):
        return list(args[0].members().methods)

    @builtin("getFields", 1, CLASS, result=LIST, missing=(0,), on_missing=[])
    def _get_fields(self, model, args):
        return list(args[0].members().fields)

    @builtin("getConstructors", 1, CLASS, result=LIST, missing=(0,), on_missing=[])
    def _get_constructors(self, model, args):
        return list(args[0].members().constructors)

    @builtin("getFamily", 1, CLASS, result=LIST, missing=(0,), on_missing=[], cached=True)
    def _get_family(self, model, args):
        cls = args[0]
        family = [cls]
        seen = {id(cls)}
        queue = [cls]
        while queue:
            current = queue.pop(0)
            for written in current.supertype_names:
                resolved = self._resolve_supertype(model, written)
                if resolved is not None and id(resolved) not in seen:
                    seen.add(id(resolved))
                    family.append(resolved)
                    queue.append(resolved)
        return family

    @staticmethod
    def _resolve_supertype(model, written: str):
        name = written.split("<", 1)[0].strip()
        if "." in name:
            return model.class_by_fqn.get(name)
        matches = model.classes_by_sn.get(name, [])
        return matches[0] if len(matches) == 1 else None

    @builtin("hasField", 2, CLASS, TEXT, result=BOOL, missing=(0, 1), on_missing=False)
    def _has_field(self, model, args):
        return any(f.name == args[1] for f in args[0].members().fields)

    @builtin("hasParam", 2, CALLABLE, TEXT, result=BOOL, missing=(0, 1), on_missing=False)
    def _has_param(self, model, args):
        return any(p.name == args[1] for p in args[0].params)

    @builtin("hasParamType", 2, CALLABLE, TEXT, result=BOOL, missing=(0, 1), on_missing=False)
    def _has_param_type(self, model, args):
        return any(p.type_name == args[1] for p in args[0].params)

    @builtin("indexInBound", 2, CALLABLE, result=BOOL, missing=(0, 1), on_missing=False)
    def _index_in_bound(self, model, args):
        """Whether 0 <= index < the parameter count; false for text that
        is not an integer, which Spring rejects too.  An index of any
        other kind is a rule error."""
        try:
            index = _int_like(args, 1)
        except BuiltinTypeError:
            if isinstance(args[1], str):
                return False
            raise
        return 0 <= index < args[0].param_count

    @builtin("isIterable", 1, METHOD, result=BOOL, missing=(0,), on_missing=False)
    def _is_iterable(self, model, args):
        rt = args[0].return_type
        if rt.endswith("[]"):
            return True
        base = rt.split("<", 1)[0].strip()
        base = base.rsplit(".", 1)[-1]
        return base in ITERABLE_BASE_NAMES

    @builtin("callExists", 1, TEXT, result=BOOL, missing=(0,), on_missing=False, cached=True)
    def _call_exists(self, model, args):
        return bool(model.call_sites(args[0]))

    @builtin("getArg", 2, SITE_OR_TEXT, result=ANY, missing=(0,), on_missing=[], cached=True)
    def _get_arg(self, model, args):
        """Two forms: (callee name, index) lists that argument across all
        captured call sites of the callee, skipping non-literal values;
        (call site, index) returns one argument or MISSING.  Each argument
        is a LocatedText at its call site's file and line."""
        idx = _int_like(args, 1)
        sites = [args[0]] if isinstance(args[0], CallSite) else model.call_sites(args[0])
        out = []
        for site in sites:
            if 0 <= idx < len(site.string_args) and site.string_args[idx] is not None:
                out.append(LocatedText(site.string_args[idx], site.file_path, site.line))
        if isinstance(args[0], CallSite):
            return out[0] if out else MISSING
        return out

    @builtin("isLibraryClass", 1, TEXT, result=BOOL, missing=(0,), on_missing=False, cached=True)
    def _is_library_class(self, model, args):
        return self.lib_patterns.matches(args[0])

    # -- annotations ---------------------------------------------------------------

    @staticmethod
    def _anno_matches(anno: AnnotationUse, query: str) -> bool:
        return anno.last_segment() == query.rsplit(".", 1)[-1]

    def _find_anno(self, item, query: str) -> AnnotationUse | None:
        for anno in item.annotations:
            if self._anno_matches(anno, query):
                return anno
        return None

    @builtin("getAnnotated", 2, TEXT, TEXT, result=LIST, missing=(0,), on_missing=[], cached=True)
    def _get_annotated(self, model, args):
        query, kind = args
        if kind == "class":
            return [c for c in model.classes if self._find_anno(c, query)]
        if kind == "method":
            out = []
            for c in model.classes:
                out.extend(
                    m for m in c.members().methods if self._find_anno(m, query)
                )
            return out
        if kind == "field":
            out = []
            for c in model.classes:
                out.extend(
                    f for f in c.members().fields if self._find_anno(f, query)
                )
            return out
        raise PreconditionError(f"kind must be class, method, or field, got {kind!r}")

    @builtin("hasAnnotation", 2, ANNOTATED, TEXT, result=BOOL, missing=(0, 1), on_missing=False)
    def _has_annotation(self, model, args):
        return self._find_anno(args[0], args[1]) is not None

    @builtin("getAnnoAttr", 3, ANNOTATED, TEXT, TEXT, result=TEXT_OR_MISSING,
             missing=(0,), on_missing=MISSING)
    def _get_anno_attr(self, model, args):
        item, query, attr = args
        anno = self._find_anno(item, query)
        if anno is None:
            return MISSING
        values = anno.attrs.get(attr)
        if not values:
            return MISSING
        return values[0]

    @builtin("getAnnoAttrValues", 3, ANNOTATED, TEXT, TEXT, result=LIST,
             missing=(0,), on_missing=[])
    def _get_anno_attr_values(self, model, args):
        """Every value of the attribute, in source order: an array
        attribute gives each element."""
        item, query, attr = args
        anno = self._find_anno(item, query)
        return list(anno.attrs.get(attr, ())) if anno is not None else []

    @builtin("getAnnoAttrNames", 2, ANNOTATED, TEXT, result=LIST,
             missing=(0,), on_missing=[])
    def _get_anno_attr_names(self, model, args):
        anno = self._find_anno(args[0], args[1])
        return list(anno.attrs.keys()) if anno is not None else []

    @builtin("hasAnnoAttr", 3, ANNOTATED, TEXT, TEXT, result=BOOL, missing=(0,), on_missing=False)
    def _has_anno_attr(self, model, args):
        item, query, attr = args
        anno = self._find_anno(item, query)
        return anno is not None and attr in anno.attrs

    # -- strings and paths ------------------------------------------------------------

    @builtin("startsWith", 2, TEXT, TEXT, result=BOOL, missing=(0, 1), on_missing=False)
    def _starts_with(self, model, args):
        return args[0].startswith(args[1])

    @builtin("endsWith", 2, TEXT, TEXT, result=BOOL, missing=(0, 1), on_missing=False)
    def _ends_with(self, model, args):
        return args[0].endswith(args[1])

    @builtin("isEmpty", 1, TEXT_OR_LIST, result=BOOL, missing=(0,), on_missing=True)
    def _is_empty(self, model, args):
        return len(args[0]) == 0

    @builtin("indexOf", 2, TEXT, TEXT, result=INTEGER, missing=(0, 1), on_missing=-1)
    def _index_of(self, model, args):
        return args[0].find(args[1])

    @builtin("substring", (2, 3), TEXT, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _substring(self, model, args):
        s = args[0]
        start = _int_like(args, 1)
        end = _int_like(args, 2) if len(args) == 3 else len(s)
        return s[max(start, 0):max(end, 0)]

    @builtin("upperCase", 1, TEXT, result=TEXT_OR_MISSING, missing=(0,), on_missing=MISSING)
    def _upper_case(self, model, args):
        return args[0].translate(_ASCII_UPPER)

    @builtin("join", (2, None), result=ANY)
    def _join(self, model, args):
        """Concatenate all-text or all-list arguments.

        MISSING propagates; mixing texts and lists is a type error.
        join never loses emptiness: the result is empty iff every
        argument is empty.
        """
        try:
            return "".join(args)  # fails unless every argument is text
        except TypeError:
            pass
        if any(a is MISSING for a in args):
            return MISSING
        if all(isinstance(a, list) for a in args):
            out = []
            for a in args:
                out.extend(a)
            return out
        kinds = ", ".join(kind_name(a) for a in args)
        first_bad = next(
            i for i, a in enumerate(args) if not isinstance(a, str)
        )
        raise BuiltinTypeError(first_bad, f"all text or all lists ({kinds})", kind_name(args[first_bad]))

    @builtin("pathExists", 1, TEXT, result=BOOL, missing=(0,), on_missing=False, cached=True)
    def _path_exists(self, model, args):
        return resolve_resource_path(args[0], model, self.resource_roots) is not None
