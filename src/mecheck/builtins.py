"""The built-in query functions available to rules.

Forty-one functions over the project model, in four groups: code
elements, annotations, XML, and plain string/path helpers.  A Registry
owns per-run configuration (library class patterns, resource roots) and
dispatches calls; arity is checked here and ahead of time by the rule
validator through builtin_signatures().

The cacheable flag in _BUILTIN_SPEC marks the built-ins whose results go
through the query cache: every one that returns a list (so the exists
index, keyed by container identity, sees one object per query) and every
one whose cost grows with the model or touches the disk.  O(1) accessors
and string helpers are cheaper than a cache lookup and are called
directly.

Missing-value policy: predicates return false when a required input is
MISSING, string transformers return MISSING, element/list getters return
an empty list.  That keeps rules free of false positives when optional
metadata is absent, at the cost of silently skipping such items.
"""

from __future__ import annotations

import functools
import re
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
from mecheck.runtime.values import MISSING, kind_name

DEFAULT_RESOURCE_ROOTS = ("src/main/resources", "src/test/resources", "WEB-INF")

ITERABLE_BASE_NAMES = frozenset(
    ["List", "ArrayList", "LinkedList", "Collection", "Iterable", "Set", "HashSet", "Stream"]
)


class UnknownBuiltinError(Exception):
    def __init__(self, name: str):
        super().__init__(f"unknown built-in function '{name}'")
        self.name = name


class BuiltinArityError(Exception):
    def __init__(self, name: str, expected: str, got: int):
        super().__init__(f"'{name}' takes {expected} argument(s), got {got}")
        self.name = name
        self.expected = expected
        self.got = got


class BuiltinTypeError(Exception):
    def __init__(self, name: str, arg_index: int, expected: str, got: str):
        super().__init__(
            f"'{name}' argument {arg_index + 1} must be {expected}, got {got}"
        )
        self.name = name
        self.arg_index = arg_index


class PreconditionError(Exception):
    def __init__(self, name: str, message: str):
        super().__init__(f"'{name}': {message}")
        self.name = name


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
        self.sources = list(patterns)
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
    A leading "classpath:" marker and leading slashes are stripped.
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
    candidates = [cleaned] + [f"{root}/{cleaned}" for root in resource_roots]
    for cand in candidates:
        if (model.root / cand).is_file():
            return cand
    base = cleaned.rsplit("/", 1)[-1]
    for xf in model.xml_files:
        if xf.path.rsplit("/", 1)[-1] == base:
            return xf.path
    return None


@functools.lru_cache(maxsize=1024)
def _glob_to_regex(glob: str) -> re.Pattern:
    parts = glob.split("*")
    return re.compile("".join(re.escape(p) for p in parts[:1]) +
                      "".join(".*" + re.escape(p) for p in parts[1:]))


class Registry:
    """Dispatch table for built-in functions.

    One Registry serves a whole run; every call receives the model
    explicitly so the registry itself stays reusable across models.
    """

    def __init__(
        self,
        lib_patterns: LibraryPatternSet | None = None,
        resource_roots: tuple[str, ...] = DEFAULT_RESOURCE_ROOTS,
    ):
        self.lib_patterns = lib_patterns or LibraryPatternSet.default()
        self.resource_roots = tuple(resource_roots)
        self._table = {}
        self._signatures = {}
        self._cacheable = set()
        self._register_all()

    # -- public API ---------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._table)

    def signatures(self) -> dict[str, tuple[int, int | None]]:
        return dict(self._signatures)

    def is_cacheable(self, name: str) -> bool:
        return name in self._cacheable

    def call(self, name: str, args: list, model: ProjectModel):
        fn = self._table.get(name)
        if fn is None:
            raise UnknownBuiltinError(name)
        low, high = self._signatures[name]
        n = len(args)
        if n < low or (high is not None and n > high):
            if high is None:
                expected = f"at least {low}"
            elif low == high:
                expected = str(low)
            else:
                expected = f"{low} to {high}"
            raise BuiltinArityError(name, expected, n)
        return fn(model, args)

    def _register_all(self):
        for name, low, high, cacheable, method_name in _BUILTIN_SPEC:
            self._table[name] = getattr(self, method_name)
            self._signatures[name] = (low, high)
            if cacheable:
                self._cacheable.add(name)

    # -- argument checking helpers -------------------------------------------

    @staticmethod
    def _text(name, args, i):
        v = args[i]
        if not isinstance(v, str):
            raise BuiltinTypeError(name, i, "text", kind_name(v))
        return v

    @staticmethod
    def _text_or_missing(name, args, i):
        v = args[i]
        if v is MISSING or isinstance(v, str):
            return v
        raise BuiltinTypeError(name, i, "text", kind_name(v))

    @staticmethod
    def _int_like(name, args, i):
        v = args[i]
        if isinstance(v, bool):
            raise BuiltinTypeError(name, i, "an integer", kind_name(v))
        if isinstance(v, int):
            return v
        if isinstance(v, str):
            try:
                return int(v.strip())
            except ValueError:
                raise BuiltinTypeError(name, i, "an integer", "text") from None
        raise BuiltinTypeError(name, i, "an integer", kind_name(v))

    @staticmethod
    def _xml_node(name, args, i):
        v = args[i]
        if not isinstance(v, (XmlFile, XmlElement)):
            raise BuiltinTypeError(name, i, "an XML file or element", kind_name(v))
        return v

    @staticmethod
    def _element(name, args, i):
        v = args[i]
        if not isinstance(v, XmlElement):
            raise BuiltinTypeError(name, i, "an XML element", kind_name(v))
        return v

    @staticmethod
    def _class_item(name, args, i):
        v = args[i]
        if not isinstance(v, ClassItem):
            raise BuiltinTypeError(name, i, "a class", kind_name(v))
        return v

    @staticmethod
    def _callable_item(name, args, i):
        v = args[i]
        if not isinstance(v, (MethodItem, ConstructorItem)):
            raise BuiltinTypeError(name, i, "a method or constructor", kind_name(v))
        return v

    @staticmethod
    def _annotated_item(name, args, i):
        v = args[i]
        if not isinstance(v, (ClassItem, MethodItem, FieldItem, ConstructorItem)):
            raise BuiltinTypeError(
                name, i, "a class, method, field, or constructor", kind_name(v)
            )
        return v

    @staticmethod
    def _elm_pattern(name, args, i):
        pat = Registry._text(name, args, i)
        if pat.startswith("<") and pat.endswith(">"):
            pat = pat[1:-1]
        return pat

    # -- XML group -------------------------------------------------------------

    def _get_xmls(self, model, args):
        return list(model.xml_files)

    def _iter_scope(self, node):
        """Search scope: a file includes its root, an element only its
        descendants."""
        if isinstance(node, XmlFile):
            return node.iter_elements()
        return (e for child in node.children for e in child.iter_subtree())

    def _get_elms(self, model, args):
        if args[0] is MISSING:
            return []
        node = self._xml_node("getElms", args, 0)
        pat = _glob_to_regex(self._elm_pattern("getElms", args, 1))
        return [e for e in self._iter_scope(node) if pat.fullmatch(e.name)]

    def _element_exists(self, model, args):
        if args[0] is MISSING:
            return False
        node = self._xml_node("elementExists", args, 0)
        pat = _glob_to_regex(self._elm_pattern("elementExists", args, 1))
        return any(pat.fullmatch(e.name) for e in self._iter_scope(node))

    def _get_attr(self, model, args):
        if args[0] is MISSING:
            return MISSING
        elem = self._element("getAttr", args, 0)
        name = self._text("getAttr", args, 1)
        return elem.attrs.get(name, MISSING)

    def _get_attrs(self, model, args):
        if args[0] is MISSING:
            return []
        elem = self._element("getAttrs", args, 0)
        pat = _glob_to_regex(self._text("getAttrs", args, 1))
        return [v for k, v in elem.attrs.items() if pat.fullmatch(k)]

    def _has_attr(self, model, args):
        if args[0] is MISSING:
            return False
        elem = self._element("hasAttr", args, 0)
        return self._text("hasAttr", args, 1) in elem.attrs

    # -- code elements ----------------------------------------------------------

    def _get_classes(self, model, args):
        return list(model.classes)

    def _class_exists(self, model, args):
        if args[0] is MISSING:
            return False
        return self._text("classExists", args, 0) in model.class_by_fqn

    def _locate_class_fqn(self, model, args):
        fqn = self._text("locateClassFQN", args, 0)
        cls = model.class_by_fqn.get(fqn)
        if cls is None:
            raise PreconditionError("locateClassFQN", f"no class named {fqn}")
        return cls

    def _locate_class_sn(self, model, args):
        sn = self._text("locateClassSN", args, 0)
        matches = model.classes_by_sn.get(sn, [])
        if len(matches) != 1:
            raise PreconditionError(
                "locateClassSN",
                f"simple name {sn} matches {len(matches)} classes",
            )
        return matches[0]

    def _is_unique_sn(self, model, args):
        if args[0] is MISSING:
            return False
        sn = self._text("isUniqueSN", args, 0)
        return len(model.classes_by_sn.get(sn, [])) == 1

    def _get_sn(self, model, args):
        v = args[0]
        if v is MISSING:
            return MISSING
        if isinstance(v, ClassItem):
            return v.simple_name
        if isinstance(v, str):
            return v.rsplit(".", 1)[-1]
        raise BuiltinTypeError("getSN", 0, "a class or text", kind_name(v))

    def _get_fqn(self, model, args):
        if args[0] is MISSING:
            return MISSING
        return self._class_item("getFQN", args, 0).fqn

    def _get_name(self, model, args):
        v = args[0]
        if v is MISSING:
            return MISSING
        if isinstance(v, ClassItem):
            return v.simple_name
        if isinstance(v, (MethodItem, FieldItem)):
            return v.name
        if isinstance(v, ConstructorItem):
            return v.owner.simple_name
        if isinstance(v, XmlFile):
            return v.path
        if isinstance(v, XmlElement):
            return v.name
        raise BuiltinTypeError(
            "getName", 0, "a class, method, field, or file", kind_name(v)
        )

    def _get_type(self, model, args):
        v = args[0]
        if v is MISSING:
            return MISSING
        if isinstance(v, FieldItem):
            return v.type_name
        raise BuiltinTypeError("getType", 0, "a field", kind_name(v))

    def _get_return_type(self, model, args):
        v = args[0]
        if v is MISSING:
            return MISSING
        if not isinstance(v, MethodItem):
            raise BuiltinTypeError("getReturnType", 0, "a method", kind_name(v))
        return v.return_type

    def _get_methods(self, model, args):
        if args[0] is MISSING:
            return []
        return list(self._class_item("getMethods", args, 0).members().methods)

    def _get_fields(self, model, args):
        if args[0] is MISSING:
            return []
        return list(self._class_item("getFields", args, 0).members().fields)

    def _get_constructors(self, model, args):
        if args[0] is MISSING:
            return []
        return list(self._class_item("getConstructors", args, 0).members().constructors)

    def _get_family(self, model, args):
        if args[0] is MISSING:
            return []
        cls = self._class_item("getFamily", args, 0)
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

    def _has_field(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return False
        cls = self._class_item("hasField", args, 0)
        name = self._text("hasField", args, 1)
        return any(f.name == name for f in cls.members().fields)

    def _has_param(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return False
        target = self._callable_item("hasParam", args, 0)
        name = self._text("hasParam", args, 1)
        return any(p.name == name for p in target.params)

    def _has_param_type(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return False
        target = self._callable_item("hasParamType", args, 0)
        type_name = self._text("hasParamType", args, 1)
        return any(p.type_name == type_name for p in target.params)

    def _index_in_bound(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return False
        target = self._callable_item("indexInBound", args, 0)
        idx = self._int_like("indexInBound", args, 1)
        return target.param_count >= idx + 1

    def _is_iterable(self, model, args):
        if args[0] is MISSING:
            return False
        v = args[0]
        if not isinstance(v, MethodItem):
            raise BuiltinTypeError("isIterable", 0, "a method", kind_name(v))
        rt = v.return_type
        if rt.endswith("[]"):
            return True
        base = rt.split("<", 1)[0].strip()
        base = base.rsplit(".", 1)[-1]
        return base in ITERABLE_BASE_NAMES

    def _call_exists(self, model, args):
        if args[0] is MISSING:
            return False
        name = self._text("callExists", args, 0)
        return bool(model.call_sites(name))

    def _get_arg(self, model, args):
        """Two forms: (callee name, index) lists that argument across all
        captured call sites of the callee, skipping non-literal values;
        (call site, index) returns one argument or MISSING."""
        if args[0] is MISSING:
            return []
        if isinstance(args[0], CallSite):
            site = args[0]
            idx = self._int_like("getArg", args, 1)
            if 0 <= idx < len(site.string_args) and site.string_args[idx] is not None:
                return site.string_args[idx]
            return MISSING
        name = self._text("getArg", args, 0)
        idx = self._int_like("getArg", args, 1)
        out = []
        for site in model.call_sites(name):
            if 0 <= idx < len(site.string_args) and site.string_args[idx] is not None:
                out.append(site.string_args[idx])
        return out

    def _is_library_class(self, model, args):
        if args[0] is MISSING:
            return False
        return self.lib_patterns.matches(self._text("isLibraryClass", args, 0))

    # -- annotations ---------------------------------------------------------------

    @staticmethod
    def _anno_matches(anno: AnnotationUse, query: str) -> bool:
        return anno.last_segment() == query.rsplit(".", 1)[-1]

    def _find_anno(self, item, query: str) -> AnnotationUse | None:
        for anno in item.annotations:
            if self._anno_matches(anno, query):
                return anno
        return None

    def _get_annotated(self, model, args):
        if args[0] is MISSING:
            return []
        query = self._text("getAnnotated", args, 0)
        kind = self._text("getAnnotated", args, 1)
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
        raise PreconditionError(
            "getAnnotated", f"kind must be class, method, or field, got {kind!r}"
        )

    def _has_annotation(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return False
        item = self._annotated_item("hasAnnotation", args, 0)
        query = self._text("hasAnnotation", args, 1)
        return self._find_anno(item, query) is not None

    def _get_anno_attr(self, model, args):
        if args[0] is MISSING:
            return MISSING
        item = self._annotated_item("getAnnoAttr", args, 0)
        query = self._text("getAnnoAttr", args, 1)
        attr = self._text("getAnnoAttr", args, 2)
        anno = self._find_anno(item, query)
        if anno is None:
            return MISSING
        values = anno.attrs.get(attr)
        if not values:
            return MISSING
        return values[0]

    def _get_anno_attr_names(self, model, args):
        if args[0] is MISSING:
            return []
        item = self._annotated_item("getAnnoAttrNames", args, 0)
        query = self._text("getAnnoAttrNames", args, 1)
        anno = self._find_anno(item, query)
        return list(anno.attrs.keys()) if anno is not None else []

    def _has_anno_attr(self, model, args):
        if args[0] is MISSING:
            return False
        item = self._annotated_item("hasAnnoAttr", args, 0)
        query = self._text("hasAnnoAttr", args, 1)
        attr = self._text("hasAnnoAttr", args, 2)
        anno = self._find_anno(item, query)
        return anno is not None and attr in anno.attrs

    # -- strings and paths ------------------------------------------------------------

    def _starts_with(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return False
        return self._text("startsWith", args, 0).startswith(
            self._text("startsWith", args, 1)
        )

    def _ends_with(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return False
        return self._text("endsWith", args, 0).endswith(
            self._text("endsWith", args, 1)
        )

    def _is_empty(self, model, args):
        v = args[0]
        if v is MISSING:
            return True
        if isinstance(v, str) or isinstance(v, list):
            return len(v) == 0
        raise BuiltinTypeError("isEmpty", 0, "text or a list", kind_name(v))

    def _index_of(self, model, args):
        if args[0] is MISSING or args[1] is MISSING:
            return -1
        return self._text("indexOf", args, 0).find(self._text("indexOf", args, 1))

    def _substring(self, model, args):
        if args[0] is MISSING:
            return MISSING
        s = self._text("substring", args, 0)
        start = self._int_like("substring", args, 1)
        end = self._int_like("substring", args, 2) if len(args) == 3 else len(s)
        start = max(start, 0)
        end = max(end, 0)
        return s[start:end]

    def _upper_case(self, model, args):
        v = args[0]
        if v is MISSING:
            return MISSING
        s = self._text("upperCase", args, 0)
        return "".join(
            chr(ord(c) - 32) if "a" <= c <= "z" else c for c in s
        )

    def _join(self, model, args):
        """Concatenate all-text or all-list arguments.

        MISSING propagates; mixing texts and lists is a type error.
        join never loses emptiness: the result is empty iff every
        argument is empty.
        """
        if any(a is MISSING for a in args):
            return MISSING
        if all(isinstance(a, str) for a in args):
            return "".join(args)
        if all(isinstance(a, list) for a in args):
            out = []
            for a in args:
                out.extend(a)
            return out
        kinds = ", ".join(kind_name(a) for a in args)
        first_bad = next(
            i for i, a in enumerate(args) if not isinstance(a, str)
        )
        raise BuiltinTypeError("join", first_bad, f"all text or all lists ({kinds})", kind_name(args[first_bad]))

    def _path_exists(self, model, args):
        if args[0] is MISSING:
            return False
        raw = self._text("pathExists", args, 0)
        return resolve_resource_path(raw, model, self.resource_roots) is not None


# name, min arity, max arity (None = unbounded), cacheable, implementation
_BUILTIN_SPEC = [
    # XML
    ("getXMLs", 0, 0, True, "_get_xmls"),
    ("getElms", 2, 2, True, "_get_elms"),
    ("elementExists", 2, 2, True, "_element_exists"),
    ("getAttr", 2, 2, False, "_get_attr"),
    ("getAttrs", 2, 2, True, "_get_attrs"),
    ("hasAttr", 2, 2, False, "_has_attr"),
    # code elements
    ("getClasses", 0, 0, True, "_get_classes"),
    ("classExists", 1, 1, False, "_class_exists"),
    ("locateClassFQN", 1, 1, False, "_locate_class_fqn"),
    ("locateClassSN", 1, 1, True, "_locate_class_sn"),
    ("isUniqueSN", 1, 1, True, "_is_unique_sn"),
    ("getSN", 1, 1, False, "_get_sn"),
    ("getFQN", 1, 1, False, "_get_fqn"),
    ("getName", 1, 1, False, "_get_name"),
    ("getType", 1, 1, False, "_get_type"),
    ("getReturnType", 1, 1, False, "_get_return_type"),
    ("getMethods", 1, 1, True, "_get_methods"),
    ("getFields", 1, 1, True, "_get_fields"),
    ("getConstructors", 1, 1, True, "_get_constructors"),
    ("getFamily", 1, 1, True, "_get_family"),
    ("hasField", 2, 2, False, "_has_field"),
    ("hasParam", 2, 2, False, "_has_param"),
    ("hasParamType", 2, 2, False, "_has_param_type"),
    ("indexInBound", 2, 2, False, "_index_in_bound"),
    ("isIterable", 1, 1, False, "_is_iterable"),
    ("callExists", 1, 1, True, "_call_exists"),
    ("getArg", 2, 2, True, "_get_arg"),
    ("isLibraryClass", 1, 1, True, "_is_library_class"),
    # annotations
    ("getAnnotated", 2, 2, True, "_get_annotated"),
    ("hasAnnotation", 2, 2, False, "_has_annotation"),
    ("getAnnoAttr", 3, 3, False, "_get_anno_attr"),
    ("getAnnoAttrNames", 2, 2, True, "_get_anno_attr_names"),
    ("hasAnnoAttr", 3, 3, False, "_has_anno_attr"),
    # strings and paths
    ("startsWith", 2, 2, False, "_starts_with"),
    ("endsWith", 2, 2, False, "_ends_with"),
    ("isEmpty", 1, 1, False, "_is_empty"),
    ("indexOf", 2, 2, False, "_index_of"),
    ("substring", 2, 3, False, "_substring"),
    ("upperCase", 1, 1, False, "_upper_case"),
    ("join", 2, None, False, "_join"),
    ("pathExists", 1, 1, True, "_path_exists"),
]

CACHEABLE_BUILTINS = frozenset(
    name for name, _, _, cacheable, _ in _BUILTIN_SPEC if cacheable
)


def builtin_signatures() -> dict[str, tuple[int, int | None]]:
    """Name -> (min arity, max arity or None) for every built-in."""
    return {name: (low, high) for name, low, high, _, _ in _BUILTIN_SPEC}
