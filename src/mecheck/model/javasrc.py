"""Declaration-level Java source scanning.

tokenize_java turns one file's text into a token list of its declarations;
the model builder runs it once per file and runs both phases below over
the same tokens:

  * tokenize_java emits the tokens of everything outside member bodies:
    the package and imports, type headers, annotations, field
    declarations with their initializers, and method and constructor
    signatures.  Of each member body (method, constructor and initializer
    bodies, enum constant bodies, blocks in field initializers) it emits
    only the braces around it and the watched calls inside it; one
    compiled regex jumps over the rest, skipping literals and comments as
    the tokenizer reads them.  To tell a member body from a type body it
    resumes scan_declarations' scan, _scan, over the tokens emitted so far
    at each '{'.

  * scan_declarations walks a whole file and records the package, the
    imports, and every type declaration (name, kind, supertypes as
    written, class-level annotations, and the token range of its body).
    Method and field bodies are only brace-counted here.

  * extract_members re-walks one type's body range and builds its model
    items: fields, methods (signature level), constructors, and the call
    sites of the WATCHED_CALLEES found inside bodies and initializers,
    all owned by the ClassItem the builder made for that type.  A record's
    components become its fields and its canonical constructor.

This is deliberately not a full Java parser: declarations and annotation
arguments are read precisely, statement-level code is only scanned for
watched calls and string/class-literal arguments, and local and anonymous
types are not declarations of the model.
"""

from __future__ import annotations

import re
import unicodedata

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

TYPE_KEYWORDS = ("class", "interface", "enum", "record")

# Callees whose call sites (and literal arguments) the model records.
WATCHED_CALLEES = frozenset(["ClassPathXmlApplicationContext", "getBean"])

IDENT = "ident"
PUNCT = "punct"
STRING = "string"
CHAR = "char"
NUMBER = "number"


# A token is a plain (kind, text, line) tuple: its kind (IDENT, PUNCT,
# STRING, CHAR or NUMBER), its text as written and its 1-based line.  A
# file yields thousands of tokens, and a tuple is the cheapest record to
# create; the scanners below read them by index or by unpacking.
Token = tuple[str, str, int]


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


def tokenize_java(text: str) -> list[Token]:
    """Lossy declaration-level Java tokenizer: identifiers, literals,
    single-char punct.

    Comments and whitespace are dropped.  Literal text keeps its quotes.
    Unterminated comments or text blocks end the token stream early, and an
    unterminated string or char literal ends at its line end, rather than
    raising: downstream scanning is best effort.  Only '\\n' counts as a
    line break; callers read sources with universal newlines.

    Member bodies are not tokenized.  A '{' that opens a block at the
    member level of a type body (or of the file), outside parentheses and
    brackets and not after a pending annotation, and that is not itself a
    type body (as _scan reads the tokens before it), opens a method,
    constructor or initializer body, an enum constant's body, or a block
    inside a field initializer.  For such a block the stream holds only
    that '{', the tokens of each watched call in it (callee name through
    the matching ')'), and its closing '}', all with their source lines.
    A block that could not be skipped without changing what
    scan_declarations and extract_members read is tokenized in full: one
    holding an annotation, one the text ends inside, one whose watched
    call does not balance its own brackets, and, in a field initializer or
    an enum's constant list, one whose parentheses or brackets do not
    balance.  A '{' inside an annotation, import clause or type header is
    tokenized as it stands.
    """
    toks: list[Token] = []
    scan = _scan(toks, FileDecls(package=None, imports=[]), final=False)
    append = toks.append
    ident_rest = _IDENT_REST.match
    blanks = _BLANKS.match
    body: _Body | None = None  # set while a watched call of a skipped body is tokenized
    i = 0
    n = len(text)
    line = 1
    while True:
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
                append((IDENT, text[i:j], line))
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
                    append((STRING, text[i : end + 3], line))
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
                    append((STRING if ch == '"' else CHAR, text[i : j + 1], line))
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
                append((NUMBER, text[i:j], line))
                i = j
                continue
            # only non-ASCII characters reach the category test
            if ch > "\x7f" and unicodedata.category(ch) in _IDENT_START_CATEGORIES:
                j = _ident_end(text, i + 1)
                prev = toks[-1] if toks else None
                if (
                    prev is not None
                    and prev[0] == IDENT
                    and text.startswith(prev[1], i - len(prev[1]))
                ):
                    # continues the identifier just before it, e.g. the £ of a£b;
                    # nothing skipped (blanks, comments, bodies) ends with an
                    # identifier char
                    toks[-1] = (IDENT, prev[1] + text[i:j], prev[2])
                else:
                    append((IDENT, text[i:j], line))
                i = j
                continue
            append((PUNCT, ch, line))
            i += 1
            if body is None:
                if ch == "{":
                    guarded = next(scan)
                    if guarded is not None:
                        body = _Body(len(toks), i, line, guarded)
                        i, line, body = body.skip(text, toks, i, line)
            elif ch in "(){}[]@":
                i, line, body = body.track(ch, text, toks, i, line)
        if body is None:
            return toks
        # the text ended inside a watched call: tokenize that body in full
        i, line, body = body.rewind(toks)


# What the scan of a skipped body stops at; the group numbers are the codes
# _Body.skip dispatches on.  Literals and comments are matched whole, the
# way tokenize_java reads them, so no brace or name inside them is seen.
# Each match first jumps over the characters no stop starts with; a '/' or
# a callee's first letter that starts no stop, and the end of the text,
# match with no group, so that no search fails and starts over, and no
# match gives back what the jump took.
_CALLEE_STARTS = "".join(sorted({name[0] for name in WATCHED_CALLEES}))


def _body_stops(extra_chars: str, extra_groups: str) -> re.Pattern:
    return re.compile(
        rf"""[^{{}}"'/@{_CALLEE_STARTS}{extra_chars}]*(?:"""
        r"(\{)|(\})"
        # 3: a text block or a comment
        r'|(""".*?"""|//[^\n]*|/\*.*?\*/)'
        # 4: a string or char literal, ending at its line end when unterminated
        r'|((?!""")"[^"\\\n]*(?:\\.[^"\\\n]*)*"?|\'[^\'\\\n]*(?:\\.[^\'\\\n]*)*\'?)'
        # 5: an annotation, or a text block or comment that is never closed
        r'|(@|"""|/\*)'
        # 6: a watched callee's name, not inside a longer word
        r"|(?<![A-Za-z0-9_$])(" + "|".join(sorted(WATCHED_CALLEES)) + r")(?![\w$])"
        + extra_groups
        + rf"|[/{_CALLEE_STARTS}]|\Z)",
        re.S,
    )


_BODY = _body_stops("", "")
# 7-10: parentheses and brackets, for bodies whose nesting must balance
_GUARDED_BODY = _body_stops(r"()\[\]", r"|(\()|(\))|(\[)|(\])")
# From the end of a callee's name: blanks and comments, then '('.  A
# comment ends at its first '*/' however the match backtracks.
_CALL_OPEN = re.compile(r"(?:[ \t\r\f\n]|//[^\n]*\n|/\*(?:[^*]|\*(?!/))*\*/)*\(")


class _Body:
    """A member body that tokenize_java skips.

    It keeps where the body starts, so that the tokenizer can rewind and
    tokenize it in full, and how deeply the scan is nested in braces,
    parentheses and brackets.  While a watched call is tokenized, the
    call_* counts hold the nesting inside that call.
    """

    __slots__ = ("ntoks", "pos", "line", "stops", "depth", "parens", "brackets",
                 "call_parens", "call_braces", "call_brackets")

    def __init__(self, ntoks: int, pos: int, line: int, guarded: bool):
        self.ntoks = ntoks  # the tokens before the body, its '{' included
        self.pos = pos  # the text index just past the '{'
        self.line = line
        self.stops = _GUARDED_BODY if guarded else _BODY
        self.depth = 1
        self.parens = self.brackets = 0
        self.call_parens = self.call_braces = self.call_brackets = 0

    def skip(self, text: str, toks: list[Token], pos: int, line: int):
        """Scan from pos, at line, to the next watched call or to the '}'
        that closes the body.  Returns where tokenizing goes on: (index,
        line, self) at a call's callee, (index past the '}', line, None)
        after emitting that '}', or the rewind to the body's start."""
        esc = 0  # escaped line breaks inside literals, which do not count as lines
        for m in self.stops.finditer(text, pos):
            code = m.lastindex
            if code is None:
                continue
            if code == 4:
                start, end = m.span(4)
                if text.find("\n", start, end) >= 0:
                    esc += text.count("\n", start, end)
            elif code == 2:
                self.depth -= 1
                if self.depth == 0:
                    if self.parens or self.brackets:
                        return self.rewind(toks)
                    end = m.start(2)
                    line += text.count("\n", pos, end) - esc
                    toks.append((PUNCT, "}", line))
                    return end + 1, line, None
            elif code == 1:
                self.depth += 1
            elif code == 6:
                start, end = m.span(6)
                if _is_call(text, start, end):
                    return start, line + text.count("\n", pos, start) - esc, self
            elif code == 7:
                self.parens += 1
            elif code == 8:
                self.parens -= 1
                if self.parens < 0:
                    return self.rewind(toks)
            elif code == 9:
                self.brackets += 1
            elif code == 10:
                self.brackets -= 1
                if self.brackets < 0:
                    return self.rewind(toks)
            elif code == 5:
                return self.rewind(toks)
        # a comment runs to the end of the text, or the body is never closed
        return self.rewind(toks)

    def track(self, ch: str, text: str, toks: list[Token], pos: int, line: int):
        """Follow one bracket (or '@') of the watched call being tokenized.
        Once its ')' closes the call, the scan of the body goes on; a call
        whose braces or brackets do not balance, or that holds an
        annotation, makes the body be tokenized in full."""
        if ch == "(":
            self.call_parens += 1
        elif ch == ")":
            self.call_parens -= 1
            if self.call_parens == 0:
                if self.call_braces or self.call_brackets:
                    return self.rewind(toks)
                return self.skip(text, toks, pos, line)
        elif ch == "{":
            self.call_braces += 1
        elif ch == "}":
            self.call_braces -= 1
            if self.call_braces < 0:
                return self.rewind(toks)
        elif ch == "[":
            self.call_brackets += 1
        elif ch == "]":
            self.call_brackets -= 1
            if self.call_brackets < 0:
                return self.rewind(toks)
        else:
            return self.rewind(toks)
        return pos, line, self

    def rewind(self, toks: list[Token]):
        """Drop what was emitted for the body; go on just past its '{'."""
        del toks[self.ntoks:]
        return self.pos, self.line, None


def _is_call(text: str, start: int, end: int) -> bool:
    """Whether the callee name at text[start:end] is a whole identifier
    token followed by '('."""
    if (
        end < len(text)
        and text[end] > "\x7f"
        and unicodedata.category(text[end]) in _IDENT_PART_CATEGORIES
    ):
        return False  # a currency symbol or connector continues the name
    if start and text[start - 1] > "\x7f":
        # Some non-ASCII characters before it are tokens of their own, others
        # are part of an identifier or number: lex the run they are in.
        run = start
        while run and (text[run - 1] > "\x7f" or text[run - 1] in _WORD_OR_DOT):
            run -= 1
        last = _lex_run(text[run:end])[-1]
        if last[0] != IDENT or last[1] != text[start:end]:
            return False
    return _CALL_OPEN.match(text, end) is not None


# The tokenizer itself, for _is_call, even where tokenize_java is wrapped.
_lex_run = tokenize_java
_WORD_OR_DOT = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_$.")


class RawType:
    """Phase-one record of one type declaration."""

    __slots__ = (
        "simple_name", "kind", "supertype_names", "annotations", "line", "nesting",
        "body_start", "body_end", "components",
    )

    def __init__(self, simple_name: str, kind: str, supertype_names: tuple[str, ...],
                 annotations: tuple[AnnotationUse, ...], line: int, nesting: tuple[str, ...],
                 body_start: int = -1, body_end: int = -1,
                 components: tuple[tuple[Param, tuple[AnnotationUse, ...], int], ...] = ()):
        self.simple_name = simple_name
        self.kind = kind
        self.supertype_names = supertype_names
        self.annotations = annotations
        self.line = line
        self.nesting = nesting  # enclosing simple names, outermost first
        self.body_start = body_start  # first token index inside the body
        self.body_end = body_end  # index of the closing '}'
        # a record's components: (component, its annotations, its name's line)
        self.components = components

    @property
    def chain(self) -> tuple[str, ...]:
        return self.nesting + (self.simple_name,)


class FileDecls:
    __slots__ = ("package", "imports", "types")

    def __init__(self, package: str | None, imports: list[str], types: list[RawType] | None = None):
        self.package = package
        self.imports = imports
        self.types = [] if types is None else types


def scan_declarations(toks: list[Token]) -> FileDecls:
    """Phase one: package, imports, and type declaration skeletons."""
    decls = FileDecls(package=None, imports=[])
    for _ in _scan(toks, decls, final=True):
        pass
    return decls


# The tokens _scan does more with than clear pending annotations.
_SCAN_PUNCT = frozenset("{};=()[]@")
_SCAN_WORDS = frozenset(["package", "import", *TYPE_KEYWORDS])

# A construct that a '{' leaves open is read again at each later '{' until
# it closes; after this many times the file's later braces all open no
# member body (they are tokenized in full), so that no input costs more
# than linear time.
_MAX_STALLS = 16


def _scan(toks: list[Token], decls: FileDecls, final: bool):
    """scan_declarations' reading of toks into decls, as a generator.

    Unless final, toks grows: tokenize_java resumes the generator each
    time it has emitted a '{'.  It reads on to the end of toks, or stops
    before a construct (annotation, import clause, type header) that runs
    past that brace, and yields None unless the brace opens a member body:
    one at the member level of a type body (or of the file), outside
    parentheses and brackets, with no annotation pending, that is not a
    type body or part of a construct.  For a member body it yields whether
    the body is guarded: in a field initializer or an enum's constant list,
    where extract_members counts its parentheses and brackets along with
    its braces.  Such a construct stays guarded up to a ';' at member level
    where it has closed all it opened; a '{' where it has closed more than
    it opened opens no member body, and neither does any '{' of a type
    declared inside it.
    """
    depth = 0
    open_types: list[tuple[RawType, int]] = []  # (type, depth of its body)
    pending: list[AnnotationUse] = []
    parens = brackets = 0  # open anywhere in the file
    guarded = False
    # What the guarded construct has opened and not closed since it began:
    # parentheses and braces, and brackets.  extract_members ends it at a
    # ';' (or a field initializer at a ',') where its own count is 0.
    nest = nest_brackets = 0
    # The body depth of the outermost type declared inside a guarded
    # construct, or 0: extract_members reads such a type's tokens as part of
    # the construct, so none of its braces opens a member body.
    opaque = 0
    member_body = -1  # the last '{' read that opens a member body
    stall_at = -1  # the start of the construct left open
    stalls = 0  # how often it was
    i = 0
    while True:
        n = len(toks)
        while i < n:
            kind, text, _ = toks[i]
            if kind == PUNCT:
                if text not in _SCAN_PUNCT:
                    i += 1
                    continue
                if text == "{":
                    if (
                        not (pending or parens or brackets or opaque)
                        and (depth == 0 or (open_types and depth == open_types[-1][1]))
                        # a ',' or ';' in the body would end the construct
                        and not (guarded and (nest < 0 or nest_brackets < 0))
                    ):
                        member_body = i
                    depth += 1
                    nest += 1
                elif text == "}":
                    depth -= 1
                    nest -= 1
                    if open_types and depth < open_types[-1][1]:
                        raw, _ = open_types.pop()
                        raw.body_end = i
                        if depth < opaque:
                            opaque = 0
                        elif not opaque:
                            guarded = False
                elif text == ";":
                    pending = []
                    if (
                        depth == 0 or (open_types and depth == open_types[-1][1])
                    ) and not (nest or nest_brackets):
                        guarded = False
                elif text == "=":
                    if not guarded and (
                        depth == 0 or (open_types and depth == open_types[-1][1])
                    ):
                        guarded = True
                        nest = nest_brackets = 0
                elif text == "(":
                    parens += 1
                    nest += 1
                elif text == ")":
                    parens -= 1
                    nest -= 1
                elif text == "[":
                    brackets += 1
                    nest_brackets += 1
                elif text == "]":
                    brackets -= 1
                    nest_brackets -= 1
                elif text == "@":
                    if i + 1 < n and toks[i + 1][1] == "interface":
                        # annotation type declaration: let the 'interface'
                        # branch record it
                        i += 1
                        continue
                    anno, j = _parse_annotation(toks, i)
                    if j >= n and not final:
                        break
                    if guarded:  # extract_members counts the arguments' brackets too
                        opened, opened_brackets = _nesting(toks, i, j)
                        nest += opened
                        nest_brackets += opened_brackets
                    pending.append(anno)
                    i = j
                    continue
                i += 1
                continue
            if kind == IDENT:
                if text not in _SCAN_WORDS:
                    if text not in MODIFIERS:
                        pending = []
                    i += 1
                    continue
                if text == "package" and depth == 0 and decls.package is None:
                    name, i = _read_dotted(toks, i + 1)
                    decls.package = name
                    continue
                if text == "import" and depth == 0:
                    j = i + 1
                    prefix = ""
                    if j < n and toks[j][1] == "static":
                        prefix = "static "
                        j += 1
                    parts = []
                    while j < n and toks[j][1] != ";":
                        parts.append(toks[j][1])
                        j += 1
                    if j >= n and not final:
                        break
                    decls.imports.append(prefix + "".join(parts))
                    i = j + 1
                    continue
                at_member_level = depth == 0 or (
                    open_types and depth == open_types[-1][1]
                )
                if (
                    text in TYPE_KEYWORDS
                    and at_member_level
                    and (i == 0 or toks[i - 1][1] != ".")
                    and i + 1 < n
                    and toks[i + 1][0] == IDENT
                ):
                    raw, j = _parse_type_header(toks, i, pending, open_types)
                    if raw is None and not final:
                        break
                    if guarded:  # the construct reads on through the header
                        opened, opened_brackets = _nesting(toks, i, j)
                        nest += opened
                        nest_brackets += opened_brackets
                    pending = []
                    if raw is not None:
                        decls.types.append(raw)
                        open_types.append((raw, depth + 1))
                        depth += 1
                        if guarded:
                            opaque = opaque or depth
                        else:
                            guarded = raw.kind == "enum"
                            nest = nest_brackets = 0
                    i = j
                    continue
                if text not in MODIFIERS:
                    pending = []
                i += 1
                continue
            pending = []
            i += 1
        if final:
            return
        if i < n:  # stopped before a construct left open
            if i != stall_at:
                stall_at, stalls = i, 0
            stalls += 1
            if stalls > _MAX_STALLS:
                while True:
                    yield None
        yield guarded if member_body == n - 1 else None


def _nesting(toks: list[Token], lo: int, hi: int) -> tuple[int, int]:
    """How many parentheses and braces, and how many brackets, toks[lo:hi]
    opens and does not close (negative where it closes more)."""
    opened = opened_brackets = 0
    for _, text, _ in toks[lo:hi]:
        if text in ("(", "{"):
            opened += 1
        elif text in (")", "}"):
            opened -= 1
        elif text == "[":
            opened_brackets += 1
        elif text == "]":
            opened_brackets -= 1
    return opened, opened_brackets


def _read_dotted(toks: list[Token], i: int) -> tuple[str, int]:
    parts = []
    n = len(toks)
    while i < n and toks[i][0] == IDENT:
        parts.append(toks[i][1])
        i += 1
        if i < n and toks[i][1] == ".":
            parts.append(".")
            i += 1
        else:
            break
    if i < n and toks[i][1] == ";":
        i += 1
    return "".join(parts), i


def _parse_type_header(toks, i, pending, open_types):
    """From the class/interface/enum/record keyword to its opening brace."""
    n = len(toks)
    kind = toks[i][1]
    name_tok = toks[i + 1]
    i += 2
    if i < n and toks[i][1] == "<":
        i = _skip_balanced(toks, i, "<", ">")
    components = ()
    if kind == "record" and i < n and toks[i][1] == "(":
        j = _skip_balanced(toks, i, "(", ")")
        components = tuple(_parse_param_list(toks[i + 1 : j - 1]))
        i = j
    supers: list[str] = []
    while i < n and toks[i][1] != "{":
        word = toks[i][1]
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
        simple_name=name_tok[1],
        kind="interface" if kind == "interface" else kind,
        supertype_names=tuple(supers),
        annotations=tuple(pending),
        line=name_tok[2],
        nesting=nesting,
        body_start=i + 1,
        components=components,
    )
    return raw, i + 1


def _parse_type_list(toks, i):
    """Comma-separated type names, as written but without their type
    annotations, up to a structural stop."""
    names = []
    n = len(toks)
    current: list[Token] = []
    angles = 0  # depth inside type arguments
    while i < n:
        t = toks[i]
        text = t[1]
        if text == "@":
            # arguments and all, though they hold braces or commas
            _, i = _parse_annotation(toks, i)
            continue
        if not angles:
            if text in ("{", "extends", "implements", "permits"):
                break
            if text == ",":
                if current:
                    names.append(_render_type(current))
                current = []
                i += 1
                continue
        if text == "<":
            angles += 1
        elif text == ">" and angles:
            angles -= 1
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
        t = toks[i][1]
        if t == open_ch:
            depth += 1
        elif t == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _render_type(tokens: list[Token]) -> str:
    """Render type tokens the way a reader would write them."""
    out: list[str] = []
    for tok in tokens:
        text = tok[1]
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
    at_line = toks[i][2]
    i += 1
    name_parts = []
    while i < n and toks[i][0] == IDENT:
        name_parts.append(toks[i][1])
        i += 1
        if i < n and toks[i][1] == "." and i + 1 < n and toks[i + 1][0] == IDENT:
            name_parts.append(".")
            i += 1
        else:
            break
    name = "".join(name_parts)
    attrs: dict[str, list[str]] = {}
    if i < n and toks[i][1] == "(":
        j = _skip_balanced(toks, i, "(", ")")
        inner = toks[i + 1 : j - 1]
        attrs = _parse_annotation_args(inner)
        i = j
    return AnnotationUse(name=name, attrs=attrs, line=at_line), i


def _parse_annotation_args(tokens: list[Token]) -> dict[str, list[str]]:
    if not tokens:
        return {}
    attrs: dict[str, list[str]] = {}
    for part in _split_top_level(tokens, ","):
        if not part:
            continue
        if len(part) >= 2 and part[0][0] == IDENT and part[1][1] == "=":
            key = part[0][1]
            values = _parse_annotation_value(part[2:])
        else:
            key = "value"
            values = _parse_annotation_value(part)
        if key not in attrs:
            attrs[key] = values
    return attrs


def _parse_annotation_value(tokens: list[Token]) -> list[str]:
    if not tokens:
        return []
    if tokens[0][1] == "{" and tokens[-1][1] == "}":
        values = []
        for part in _split_top_level(tokens[1:-1], ","):
            if part:
                values.append(_render_annotation_scalar(part))
        return values
    return [_render_annotation_scalar(tokens)]


def _render_annotation_scalar(tokens: list[Token]) -> str:
    if len(tokens) == 1 and tokens[0][0] == STRING:
        return decode_java_string(tokens[0][1])
    return "".join(t[1] for t in tokens)


def _split_top_level(tokens: list[Token], sep: str) -> list[list[Token]]:
    parts: list[list[Token]] = [[]]
    depth = 0
    for tok in tokens:
        text = tok[1]
        if text in ("(", "{", "["):
            depth += 1
        elif text in (")", "}", "]"):
            depth -= 1
        if text == sep and depth == 0:
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


def extract_members(toks: list[Token], raw: RawType, owner: ClassItem) -> Members:
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
        kind, text, line = toks[i]
        if kind == PUNCT:
            if text == "@":
                if i + 1 < n and toks[i + 1][1] == "interface":
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
        if kind != IDENT:
            pending = []
            i += 1
            continue
        if text in MODIFIERS:
            i += 1
            continue
        if text in TYPE_KEYWORDS and i + 1 < n and toks[i + 1][0] == IDENT:
            # nested type: its members belong to its own ClassItem
            j = i + 2
            if text == "record":
                # its components may hold braces, in annotation arguments
                if j < n and toks[j][1] == "<":
                    j = _skip_balanced(toks, j, "<", ">")
                if j < n and toks[j][1] == "(":
                    j = _skip_balanced(toks, j, "(", ")")
            while j < n and toks[j][1] != "{":
                j += 1
            i = _skip_balanced(toks, j, "{", "}") if j < n else n
            pending = []
            continue
        if text == raw.simple_name and i + 1 < n and toks[i + 1][1] == "(":
            params, i = _parse_callable_rest(toks, i + 1, n, owner, calls)
            ctors.append(ConstructorItem(params, tuple(pending), owner, line))
            pending = []
            continue
        type_text, j = _parse_type_ref(toks, i, n)
        if type_text is None or j >= n or toks[j][0] != IDENT:
            pending = []
            i += 1
            continue
        name_tok = toks[j]
        if j + 1 < n and toks[j + 1][1] == "(":
            params, i = _parse_callable_rest(toks, j + 1, n, owner, calls)
            methods.append(
                MethodItem(name_tok[1], type_text, params, tuple(pending), owner, name_tok[2])
            )
            pending = []
            continue
        # field declaration, possibly with several declarators
        i = _parse_field_decl(toks, j, n, type_text, tuple(pending), owner, fields, calls)
        pending = []
    if raw.kind == "record":
        _add_record_members(raw, owner, fields, ctors)
    return Members(tuple(fields), tuple(methods), tuple(ctors), tuple(calls))


def _add_record_members(raw, owner, fields, ctors):
    """A record's components are its first fields, and the parameters of
    its canonical constructor unless the body declares that constructor
    with its parameter list.  (A compact canonical constructor, `Name {`,
    reads as an initializer block.)"""
    fields[:0] = [
        FieldItem(param.name, _array_of_varargs(param.type_name), annos, owner, line)
        for param, annos, line in raw.components
    ]
    params = tuple(param for param, _, _ in raw.components)
    types = [param.type_name for param in params]
    if not any([p.type_name for p in ctor.params] == types for ctor in ctors):
        ctors.insert(0, ConstructorItem(params, (), owner, raw.line))


def _array_of_varargs(type_name: str) -> str:
    """A varargs component `T...` is a field of type `T[]`."""
    return type_name[:-3] + "[]" if type_name.endswith("...") else type_name


def _skip_enum_constants(toks, lo, hi, owner, calls):
    """Enum constants run to the first top-level ';' (or the body end)."""
    depth = 0
    i = lo
    while i < hi:
        text = toks[i][1]
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
    if i >= n or toks[i][0] != IDENT:
        return None, i
    collected = [toks[i]]
    i += 1
    while i + 1 < n and toks[i][1] == "." and toks[i + 1][0] == IDENT:
        collected.append(toks[i])
        collected.append(toks[i + 1])
        i += 2
    if i < n and toks[i][1] == "<":
        j = _skip_balanced(toks, i, "<", ">")
        collected.extend(toks[i:j])
        i = j
    while i + 1 < n and toks[i][1] == "[" and toks[i + 1][1] == "]":
        collected.append(toks[i])
        collected.append(toks[i + 1])
        i += 2
    # varargs
    if i + 2 < n and toks[i][1] == "." and toks[i + 1][1] == "." and toks[i + 2][1] == ".":
        collected.extend(toks[i : i + 3])
        i += 3
    return _render_type(collected), i


def _parse_callable_rest(toks, i, n, owner, calls):
    """A method or constructor from the '(' at i: its parameters, any
    throws clause, and a body (scanned for calls) or ';'.  Returns
    (params, index past the declaration)."""
    params, i = _parse_params(toks, i, n)
    i = _skip_throws(toks, i, n)
    if i < n and toks[i][1] == "{":
        end = _skip_balanced(toks, i, "{", "}")
        _scan_calls(toks, i + 1, end - 1, owner, calls)
        return params, end
    if i < n and toks[i][1] == ";":
        return params, i + 1
    return params, i


def _parse_params(toks, i, n):
    """i points at '('; returns (params, index past ')')."""
    j = _skip_balanced(toks, i, "(", ")")
    return tuple(param for param, _, _ in _parse_param_list(toks[i + 1 : j - 1])), j


def _parse_param_list(inner):
    """The parameters (or record components) between a '(' and its ')':
    (param, its annotations, its name's line) for each."""
    params = []
    for part in _split_params(inner):
        annos = []
        k = 0
        while k < len(part):
            if part[k][1] == "@":
                anno, k = _parse_annotation(part, k)
                annos.append(anno)
            elif part[k][0] == IDENT and part[k][1] == "final":
                k += 1
            else:
                break
        rest = part[k:]
        if not rest:
            continue
        # name is the last identifier; what precedes it is the type
        name_idx = None
        for idx in range(len(rest) - 1, -1, -1):
            if rest[idx][0] == IDENT:
                name_idx = idx
                break
        if name_idx is None or name_idx == 0:
            continue
        type_toks = rest[:name_idx]
        name_tok = rest[name_idx]
        suffix = ""
        idx = name_idx + 1
        while idx + 1 < len(rest) and rest[idx][1] == "[" and rest[idx + 1][1] == "]":
            suffix += "[]"
            idx += 2
        params.append(
            (Param(_render_type(type_toks) + suffix, name_tok[1]), tuple(annos), name_tok[2])
        )
    return params


def _split_params(tokens: list[Token]) -> list[list[Token]]:
    """Split a parameter list at its commas, except those inside brackets
    or a generic type's <...> (the tokenizer emits each '>' of '>>' and
    '>>>' on its own).  Unlike in call and annotation arguments, '<' here
    is never a less-than outside brackets."""
    parts: list[list[Token]] = [[]]
    depth = angles = 0
    for tok in tokens:
        text = tok[1]
        if text in ("(", "{", "["):
            depth += 1
        elif text in (")", "}", "]"):
            depth -= 1
        elif depth == 0 and text == "<":
            angles += 1
        elif depth == 0 and text == ">":
            angles -= 1
        if text == "," and depth == 0 and angles == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    return parts


def _skip_throws(toks, i, n):
    if i < n and toks[i][0] == IDENT and toks[i][1] == "throws":
        i += 1
        while i < n and toks[i][1] not in ("{", ";"):
            i += 1
    return i


def _parse_field_decl(toks, j, n, type_text, annos, owner, fields, calls):
    """Field declarators from the first name at j to the closing ';'."""
    while j < n:
        if toks[j][0] != IDENT:
            break
        name_tok = toks[j]
        suffix = ""
        j += 1
        while j + 1 < n and toks[j][1] == "[" and toks[j + 1][1] == "]":
            suffix += "[]"
            j += 2
        fields.append(FieldItem(name_tok[1], type_text + suffix, annos, owner, name_tok[2]))
        if j < n and toks[j][1] == "=":
            j += 1
            init_start = j
            depth = 0
            while j < n:
                text = toks[j][1]
                if text in ("(", "{", "["):
                    depth += 1
                elif text in (")", "}", "]"):
                    depth -= 1
                elif depth == 0 and text in (",", ";"):
                    break
                j += 1
            _scan_calls(toks, init_start, j, owner, calls)
        if j < n and toks[j][1] == ",":
            j += 1
            continue
        break
    while j < n and toks[j][1] != ";":
        j += 1
    return j + 1 if j < n else n


def _scan_calls(toks, lo, hi, owner, calls):
    """Append the watched calls in toks[lo:hi] to calls as call sites of
    owner, numbered on from len(calls); nested calls are found too."""
    j = lo
    while j < hi:
        kind, text, line = toks[j]
        if (
            kind == IDENT
            and text in WATCHED_CALLEES
            and j + 1 < hi
            and toks[j + 1][1] == "("
        ):
            args = _parse_call_args(toks, j + 1, hi)
            calls.append(
                CallSite(text, args, owner, owner.file_path, line, ordinal=len(calls))
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


def _classify_arg(part: list[Token]) -> str | None:
    if len(part) == 1 and part[0][0] == STRING:
        return decode_java_string(part[0][1])
    # Foo.class or com.acme.Foo.class
    if (
        len(part) >= 3
        and part[-1][0] == IDENT
        and part[-1][1] == "class"
        and part[-2][1] == "."
    ):
        ok = all(
            (t[0] == IDENT if idx % 2 == 0 else t[1] == ".")
            for idx, t in enumerate(part)
        )
        if ok:
            return "".join(t[1] for t in part)
    return None
