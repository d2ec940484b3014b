"""Frozen copy of the full-token Java front end: tokenize_java,
scan_declarations and extract_members as they were before member bodies
were skipped.

tests/test_javasrc_oracle.py asserts that mecheck.model.javasrc, which
tokenizes member bodies only for their watched calls, finds the same
declarations, members and call sites as this copy.  Keep its logic
unchanged.  It knows no `record` declarations, so inputs compared against
it contain none.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from mecheck.model.items import (
    AnnotationUse,
    CallSite,
    ClassItem,
    ConstructorItem,
    FieldItem,
    Members,
    MethodItem,
    Param,
)

MODIFIERS = frozenset(
    [
        "public",
        "private",
        "protected",
        "static",
        "final",
        "abstract",
        "synchronized",
        "native",
        "transient",
        "volatile",
        "strictfp",
        "default",
        "sealed",
    ]
)

TYPE_KEYWORDS = ("class", "interface", "enum")

# Callees whose call sites (and literal arguments) the model records.
WATCHED_CALLEES = frozenset(["ClassPathXmlApplicationContext", "getBean"])

IDENT = "ident"
PUNCT = "punct"
STRING = "string"
CHAR = "char"
NUMBER = "number"


class JTok:
    """One token: its kind (IDENT, PUNCT, STRING, CHAR or NUMBER), its
    text as written and its 1-based line.  A plain slotted class, because
    a file yields thousands of tokens and a frozen dataclass costs several
    times as much to create."""

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"JTok({self.kind!r}, {self.text!r}, {self.line})"


# The rest of an identifier: re's \w is exactly str.isalnum() plus '_'.
_IDENT_REST = re.compile(r"[\w$]*")
_BLANKS = re.compile(r"[ \t\r\f]+")
# Besides letters, Java starts identifiers with letter numbers (Nl),
# currency symbols (Sc) and connectors (Pc); Sc and Pc also continue one,
# Nl already does through \w.
_IDENT_START_CATEGORIES = frozenset(["Nl", "Sc", "Pc"])
_IDENT_PART_CATEGORIES = frozenset(["Sc", "Pc"])


def _ident_end(text: str, j: int) -> int:
    """End of the identifier part starting at j."""
    n = len(text)
    while True:
        j = _IDENT_REST.match(text, j).end()
        if j == n or unicodedata.category(text[j]) not in _IDENT_PART_CATEGORIES:
            return j
        j += 1


def tokenize_java(text: str) -> list[JTok]:
    """Lossy Java tokenizer: identifiers, literals, single-char punct.

    Comments and whitespace are dropped.  Literal text keeps its quotes.
    Unterminated comments or strings end the token stream early rather
    than raising: downstream scanning is best effort.  Only '\n' counts
    as a line break; callers read sources with universal newlines.
    """
    toks: list[JTok] = []
    append = toks.append
    ident_rest = _IDENT_REST.match
    blanks = _BLANKS.match
    i = 0
    n = len(text)
    line = 1
    while i < n:
        ch = text[i]
        if ch in " \t\r\f":
            i = blanks(text, i).end()
            continue
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            j = ident_rest(text, i + 1).end()
            append(JTok(IDENT, text[i:j], line))
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            i = text.find("\n", i)
            if i == -1:
                break
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                break
            line += text.count("\n", i, end + 2)
            i = end + 2
            continue
        if ch == '"' or ch == "'":
            if ch == '"' and text.startswith('"""', i):
                end = text.find('"""', i + 3)
                if end == -1:
                    break
                append(JTok(STRING, text[i : end + 3], line))
                line += text.count("\n", i, end + 3)
                i = end + 3
                continue
            j = i + 1
            while j < n and text[j] != ch and text[j] != "\n":
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                else:
                    j += 1
            if j < n and text[j] == ch:
                append(JTok(STRING if ch == '"' else CHAR, text[i : j + 1], line))
                i = j + 1
            else:
                i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._"):
                # A dot only belongs to the number when a digit follows;
                # otherwise it is member access (e.g. 1 .toString()).
                if text[j] == "." and not (j + 1 < n and text[j + 1].isdigit()):
                    break
                j += 1
            append(JTok(NUMBER, text[i:j], line))
            i = j
            continue
        # only non-ASCII characters reach the category test
        if ch > "\x7f" and unicodedata.category(ch) in _IDENT_START_CATEGORIES:
            j = _ident_end(text, i + 1)
            prev = toks[-1] if toks else None
            if (
                prev is not None
                and prev.kind == IDENT
                and text.startswith(prev.text, i - len(prev.text))
            ):
                # continues the identifier just before it, e.g. the £ of a£b;
                # nothing skipped (blanks, comments) ends with an identifier char
                prev.text += text[i:j]
            else:
                append(JTok(IDENT, text[i:j], line))
            i = j
            continue
        append(JTok(PUNCT, ch, line))
        i += 1
    return toks


@dataclass
class RawType:
    """Phase-one record of one type declaration."""

    simple_name: str
    kind: str
    supertype_names: tuple[str, ...]
    annotations: tuple[AnnotationUse, ...]
    line: int
    nesting: tuple[str, ...]  # enclosing simple names, outermost first
    body_start: int = -1  # first token index inside the body
    body_end: int = -1  # index of the closing '}'

    @property
    def chain(self) -> tuple[str, ...]:
        return self.nesting + (self.simple_name,)


@dataclass
class FileDecls:
    package: str | None
    imports: list[str]
    types: list[RawType] = field(default_factory=list)


def scan_declarations(toks: list[JTok]) -> FileDecls:
    """Phase one: package, imports, and type declaration skeletons."""
    decls = FileDecls(package=None, imports=[])
    depth = 0
    open_types: list[tuple[RawType, int]] = []  # (type, depth of its body)
    pending: list[AnnotationUse] = []
    i = 0
    n = len(toks)
    while i < n:
        tok = toks[i]
        if tok.kind == PUNCT:
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                if open_types and depth < open_types[-1][1]:
                    raw, _ = open_types.pop()
                    raw.body_end = i
            elif tok.text == ";":
                pending = []
            elif tok.text == "@":
                if i + 1 < n and toks[i + 1].text == "interface":
                    # annotation type declaration: let the 'interface'
                    # branch record it
                    i += 1
                    continue
                anno, i = _parse_annotation(toks, i)
                pending.append(anno)
                continue
            i += 1
            continue
        if tok.kind == IDENT:
            word = tok.text
            if word == "package" and depth == 0 and decls.package is None:
                name, i = _read_dotted(toks, i + 1)
                decls.package = name
                continue
            if word == "import" and depth == 0:
                j = i + 1
                prefix = ""
                if j < n and toks[j].text == "static":
                    prefix = "static "
                    j += 1
                parts = []
                while j < n and toks[j].text != ";":
                    parts.append(toks[j].text)
                    j += 1
                decls.imports.append(prefix + "".join(parts))
                i = j + 1
                continue
            at_member_level = depth == 0 or (
                open_types and depth == open_types[-1][1]
            )
            prev = toks[i - 1] if i > 0 else None
            if (
                word in TYPE_KEYWORDS
                and at_member_level
                and (prev is None or prev.text != ".")
                and i + 1 < n
                and toks[i + 1].kind == IDENT
            ):
                raw, i = _parse_type_header(toks, i, pending, open_types)
                pending = []
                if raw is not None:
                    decls.types.append(raw)
                    open_types.append((raw, depth + 1))
                    depth += 1
                continue
            if word not in MODIFIERS:
                pending = []
            i += 1
            continue
        pending = []
        i += 1
    return decls


def _read_dotted(toks: list[JTok], i: int) -> tuple[str, int]:
    parts = []
    n = len(toks)
    while i < n and toks[i].kind == IDENT:
        parts.append(toks[i].text)
        i += 1
        if i < n and toks[i].text == ".":
            parts.append(".")
            i += 1
        else:
            break
    if i < n and toks[i].text == ";":
        i += 1
    return "".join(parts), i


def _parse_type_header(toks, i, pending, open_types):
    """From the class/interface/enum keyword to its opening brace."""
    n = len(toks)
    kind = toks[i].text
    name_tok = toks[i + 1]
    i += 2
    if i < n and toks[i].text == "<":
        i = _skip_balanced(toks, i, "<", ">")
    supers: list[str] = []
    while i < n and toks[i].text != "{":
        word = toks[i].text
        if word in ("extends", "implements"):
            i += 1
            names, i = _parse_type_list(toks, i)
            supers.extend(names)
        elif word == "permits":
            i += 1
            _, i = _parse_type_list(toks, i)
        else:
            i += 1
    if i >= n:
        return None, n
    nesting = tuple(rt.simple_name for rt, _ in open_types)
    raw = RawType(
        simple_name=name_tok.text,
        kind="interface" if kind == "interface" else kind,
        supertype_names=tuple(supers),
        annotations=tuple(pending),
        line=name_tok.line,
        nesting=nesting,
        body_start=i + 1,
    )
    return raw, i + 1


def _parse_type_list(toks, i):
    """Comma-separated type names, as written, up to a structural stop."""
    names = []
    n = len(toks)
    current: list[JTok] = []
    while i < n:
        t = toks[i]
        if t.text in ("{", "extends", "implements", "permits"):
            break
        if t.text == "," :
            if current:
                names.append(_render_type(current))
            current = []
            i += 1
            continue
        if t.text == "<":
            j = _skip_balanced(toks, i, "<", ">")
            current.extend(toks[i:j])
            i = j
            continue
        current.append(t)
        i += 1
    if current:
        names.append(_render_type(current))
    return names, i


def _skip_balanced(toks, i, open_ch, close_ch):
    """i points at open_ch; return the index just past its match."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_ch:
            depth += 1
        elif t == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _render_type(tokens: list[JTok]) -> str:
    """Render type tokens the way a reader would write them."""
    out: list[str] = []
    for tok in tokens:
        text = tok.text
        if text == ",":
            out.append(", ")
        elif text in ("<", ">", "[", "]", ".", "(", ")"):
            out.append(text)
        else:
            if out and (out[-1][-1].isalnum() or out[-1][-1] in "_$?>]"):
                out.append(" ")
            out.append(text)
    return "".join(out).strip()


# -- annotations ------------------------------------------------------------


def _parse_annotation(toks, i):
    """i points at '@'; returns (AnnotationUse, next index)."""
    n = len(toks)
    at_line = toks[i].line
    i += 1
    name_parts = []
    while i < n and toks[i].kind == IDENT:
        name_parts.append(toks[i].text)
        i += 1
        if i < n and toks[i].text == "." and i + 1 < n and toks[i + 1].kind == IDENT:
            name_parts.append(".")
            i += 1
        else:
            break
    name = "".join(name_parts)
    attrs: dict[str, list[str]] = {}
    if i < n and toks[i].text == "(":
        j = _skip_balanced(toks, i, "(", ")")
        inner = toks[i + 1 : j - 1]
        attrs = _parse_annotation_args(inner)
        i = j
    return AnnotationUse(name=name, attrs=attrs, line=at_line), i


def _parse_annotation_args(tokens: list[JTok]) -> dict[str, list[str]]:
    if not tokens:
        return {}
    attrs: dict[str, list[str]] = {}
    for part in _split_top_level(tokens, ","):
        if not part:
            continue
        if len(part) >= 2 and part[0].kind == IDENT and part[1].text == "=":
            key = part[0].text
            values = _parse_annotation_value(part[2:])
        else:
            key = "value"
            values = _parse_annotation_value(part)
        if key not in attrs:
            attrs[key] = values
    return attrs


def _parse_annotation_value(tokens: list[JTok]) -> list[str]:
    if not tokens:
        return []
    if tokens[0].text == "{" and tokens[-1].text == "}":
        values = []
        for part in _split_top_level(tokens[1:-1], ","):
            if part:
                values.append(_render_annotation_scalar(part))
        return values
    return [_render_annotation_scalar(tokens)]


def _render_annotation_scalar(tokens: list[JTok]) -> str:
    if len(tokens) == 1 and tokens[0].kind == STRING:
        return decode_java_string(tokens[0].text)
    return "".join(t.text for t in tokens)


def _split_top_level(tokens: list[JTok], sep: str) -> list[list[JTok]]:
    parts: list[list[JTok]] = [[]]
    depth = 0
    for tok in tokens:
        if tok.text in ("(", "{", "["):
            depth += 1
        elif tok.text in (")", "}", "]"):
            depth -= 1
        if tok.text == sep and depth == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    return parts


def decode_java_string(lexeme: str) -> str:
    """String literal lexeme (quotes included) -> text value."""
    if lexeme.startswith('"""'):
        return lexeme[3:-3]
    body = lexeme[1:-1]
    out = []
    i = 0
    escapes = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "0": "\0",
               "'": "'", '"': '"', "\\": "\\"}
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            if nxt == "u" and i + 5 < len(body):
                try:
                    out.append(chr(int(body[i + 2 : i + 6], 16)))
                    i += 6
                    continue
                except ValueError:
                    pass
            out.append(escapes.get(nxt, nxt))
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


# -- member extraction --------------------------------------------------------


def extract_members(toks: list[JTok], raw: RawType, owner: ClassItem) -> Members:
    """Phase two: the members and watched call sites of one type body, as
    model items owned by owner.  Call sites are numbered in source order."""
    fields: list[FieldItem] = []
    methods: list[MethodItem] = []
    ctors: list[ConstructorItem] = []
    calls: list[CallSite] = []
    lo = raw.body_start
    hi = raw.body_end if raw.body_end >= 0 else len(toks)
    if raw.kind == "enum":
        lo = _skip_enum_constants(toks, lo, hi, owner, calls)
    i = lo
    pending: list[AnnotationUse] = []
    n = hi
    while i < n:
        tok = toks[i]
        text = tok.text
        if tok.kind == PUNCT:
            if text == "@":
                if i + 1 < n and toks[i + 1].text == "interface":
                    i += 1
                    continue
                anno, i = _parse_annotation(toks, i)
                pending.append(anno)
                continue
            if text == ";":
                pending = []
                i += 1
                continue
            if text == "{":
                # instance or static initializer block
                j = _skip_balanced(toks, i, "{", "}")
                _scan_calls(toks, i + 1, j - 1, owner, calls)
                pending = []
                i = j
                continue
            if text == "<":
                i = _skip_balanced(toks, i, "<", ">")
                continue
            i += 1
            continue
        if tok.kind != IDENT:
            pending = []
            i += 1
            continue
        if text in MODIFIERS:
            i += 1
            continue
        if text in TYPE_KEYWORDS and i + 1 < n and toks[i + 1].kind == IDENT:
            # nested type: its members belong to its own ClassItem
            j = i
            while j < n and toks[j].text != "{":
                j += 1
            i = _skip_balanced(toks, j, "{", "}") if j < n else n
            pending = []
            continue
        if text == raw.simple_name and i + 1 < n and toks[i + 1].text == "(":
            params, i = _parse_callable_rest(toks, i + 1, n, owner, calls)
            ctors.append(ConstructorItem(params, tuple(pending), owner, tok.line))
            pending = []
            continue
        type_text, j = _parse_type_ref(toks, i, n)
        if type_text is None or j >= n or toks[j].kind != IDENT:
            pending = []
            i += 1
            continue
        name_tok = toks[j]
        if j + 1 < n and toks[j + 1].text == "(":
            params, i = _parse_callable_rest(toks, j + 1, n, owner, calls)
            methods.append(
                MethodItem(name_tok.text, type_text, params, tuple(pending), owner, name_tok.line)
            )
            pending = []
            continue
        # field declaration, possibly with several declarators
        i = _parse_field_decl(toks, j, n, type_text, tuple(pending), owner, fields, calls)
        pending = []
    return Members(tuple(fields), tuple(methods), tuple(ctors), tuple(calls))


def _skip_enum_constants(toks, lo, hi, owner, calls):
    """Enum constants run to the first top-level ';' (or the body end)."""
    depth = 0
    i = lo
    while i < hi:
        text = toks[i].text
        if text in ("(", "{"):
            depth += 1
        elif text in (")", "}"):
            depth -= 1
        elif text == ";" and depth == 0:
            _scan_calls(toks, lo, i, owner, calls)
            return i + 1
        i += 1
    _scan_calls(toks, lo, hi, owner, calls)
    return hi


def _parse_type_ref(toks, i, n):
    """Parse a type usage: dotted name, optional generics, array suffixes.

    Returns (rendered text, next index) or (None, i) when toks[i] does
    not start a type.
    """
    if i >= n or toks[i].kind != IDENT:
        return None, i
    collected = [toks[i]]
    i += 1
    while i + 1 < n and toks[i].text == "." and toks[i + 1].kind == IDENT:
        collected.append(toks[i])
        collected.append(toks[i + 1])
        i += 2
    if i < n and toks[i].text == "<":
        j = _skip_balanced(toks, i, "<", ">")
        collected.extend(toks[i:j])
        i = j
    while i + 1 < n and toks[i].text == "[" and toks[i + 1].text == "]":
        collected.append(toks[i])
        collected.append(toks[i + 1])
        i += 2
    # varargs
    if i + 2 < n and toks[i].text == "." and toks[i + 1].text == "." and toks[i + 2].text == ".":
        collected.extend(toks[i : i + 3])
        i += 3
    return _render_type(collected), i


def _parse_callable_rest(toks, i, n, owner, calls):
    """A method or constructor from the '(' at i: its parameters, any
    throws clause, and a body (scanned for calls) or ';'.  Returns
    (params, index past the declaration)."""
    params, i = _parse_params(toks, i, n)
    i = _skip_throws(toks, i, n)
    if i < n and toks[i].text == "{":
        end = _skip_balanced(toks, i, "{", "}")
        _scan_calls(toks, i + 1, end - 1, owner, calls)
        return params, end
    if i < n and toks[i].text == ";":
        return params, i + 1
    return params, i


def _parse_params(toks, i, n):
    """i points at '('; returns (params, index past ')')."""
    j = _skip_balanced(toks, i, "(", ")")
    inner = toks[i + 1 : j - 1]
    params: list[Param] = []
    for part in _split_params(inner):
        k = 0
        while k < len(part):
            if part[k].text == "@":
                _, k = _parse_annotation(part, k)
            elif part[k].kind == IDENT and part[k].text == "final":
                k += 1
            else:
                break
        rest = part[k:]
        if not rest:
            continue
        # name is the last identifier; what precedes it is the type
        name_idx = None
        for idx in range(len(rest) - 1, -1, -1):
            if rest[idx].kind == IDENT:
                name_idx = idx
                break
        if name_idx is None or name_idx == 0:
            continue
        type_toks = rest[:name_idx]
        name = rest[name_idx].text
        suffix = ""
        idx = name_idx + 1
        while idx + 1 < len(rest) and rest[idx].text == "[" and rest[idx + 1].text == "]":
            suffix += "[]"
            idx += 2
        params.append(Param(_render_type(type_toks) + suffix, name))
    return tuple(params), j


def _split_params(tokens: list[JTok]) -> list[list[JTok]]:
    """Split a parameter list at its commas, except those inside brackets
    or a generic type's <...> (the tokenizer emits each '>' of '>>' and
    '>>>' on its own).  Unlike in call and annotation arguments, '<' here
    is never a less-than outside brackets."""
    parts: list[list[JTok]] = [[]]
    depth = angles = 0
    for tok in tokens:
        if tok.text in ("(", "{", "["):
            depth += 1
        elif tok.text in (")", "}", "]"):
            depth -= 1
        elif depth == 0 and tok.text == "<":
            angles += 1
        elif depth == 0 and tok.text == ">":
            angles -= 1
        if tok.text == "," and depth == 0 and angles == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    return parts


def _skip_throws(toks, i, n):
    if i < n and toks[i].kind == IDENT and toks[i].text == "throws":
        i += 1
        while i < n and toks[i].text not in ("{", ";"):
            i += 1
    return i


def _parse_field_decl(toks, j, n, type_text, annos, owner, fields, calls):
    """Field declarators from the first name at j to the closing ';'."""
    while j < n:
        if toks[j].kind != IDENT:
            break
        name_tok = toks[j]
        suffix = ""
        j += 1
        while j + 1 < n and toks[j].text == "[" and toks[j + 1].text == "]":
            suffix += "[]"
            j += 2
        fields.append(FieldItem(name_tok.text, type_text + suffix, annos, owner, name_tok.line))
        if j < n and toks[j].text == "=":
            j += 1
            init_start = j
            depth = 0
            while j < n:
                text = toks[j].text
                if text in ("(", "{", "["):
                    depth += 1
                elif text in (")", "}", "]"):
                    depth -= 1
                elif depth == 0 and text in (",", ";"):
                    break
                j += 1
            _scan_calls(toks, init_start, j, owner, calls)
        if j < n and toks[j].text == ",":
            j += 1
            continue
        break
    while j < n and toks[j].text != ";":
        j += 1
    return j + 1 if j < n else n


def _scan_calls(toks, lo, hi, owner, calls):
    """Append the watched calls in toks[lo:hi] to calls as call sites of
    owner, numbered on from len(calls); nested calls are found too."""
    j = lo
    while j < hi:
        tok = toks[j]
        if (
            tok.kind == IDENT
            and tok.text in WATCHED_CALLEES
            and j + 1 < hi
            and toks[j + 1].text == "("
        ):
            args = _parse_call_args(toks, j + 1, hi)
            calls.append(
                CallSite(tok.text, args, owner, owner.file_path, tok.line, ordinal=len(calls))
            )
        j += 1


def _parse_call_args(toks, i, hi):
    """i points at '('; classify each top-level argument."""
    j = _skip_balanced(toks, i, "(", ")")
    j = min(j, hi)
    inner = toks[i + 1 : j - 1]
    args: list[str | None] = []
    for part in _split_top_level(inner, ","):
        if not part:
            continue
        args.append(_classify_arg(part))
    return tuple(args)


def _classify_arg(part: list[JTok]) -> str | None:
    if len(part) == 1 and part[0].kind == STRING:
        return decode_java_string(part[0].text)
    # Foo.class or com.acme.Foo.class
    if (
        len(part) >= 3
        and part[-1].kind == IDENT
        and part[-1].text == "class"
        and part[-2].text == "."
    ):
        ok = all(
            (t.kind == IDENT if idx % 2 == 0 else t.text == ".")
            for idx, t in enumerate(part)
        )
        if ok:
            return "".join(t.text for t in part)
    return None
