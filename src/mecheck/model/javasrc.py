"""Declaration-level Java source reading.

tokenize_java lexes one Java file into a token list of its declarations
and reads the file's declarations and members on the way; the model
builder runs it once per file, and scan_declarations and extract_members
hand out what it read.

  * The lexer is one compiled pattern, _LEX; a character loop reads only
    what the pattern leaves (non-ASCII characters, text blocks, and
    literals and comments that are not closed).  It lexes on demand, up to
    the next '{' at a time, and marks each '@' and declaration keyword
    (package, import, class, interface, enum, record), and each brace
    lexed while a mark waits to be read.
  * One recursive reader walks each type body for its fields, methods and
    constructors (signature level), annotations and the call sites of the
    WATCHED_CALLEES, and recurses into nested types.  Where it reads a
    method, constructor or initializer body only for its watched calls,
    it asks the lexer to jump over that body: one compiled regex skips it,
    and the tokens hold only its braces.  A body that holds an '@' or a
    watched callee's name is lexed in full instead, and its calls are read
    from its tokens.  Every other '{' is lexed as it stands.
  * Along with the reader, the declaration scan reads the marked tokens:
    the package, the imports and every type declaration of the file (name,
    kind, supertypes as written, annotations, and the token range of its
    body), by brace depth over the whole file.  The reader recurses into a
    nested type where the scan opened it at the same keyword and '{'; a
    type the scan opens anywhere else (in a field initializer, say) is an
    orphan, read on its own once the file is lexed.
  * extract_members makes what the reader read of one type into model
    items owned by the ClassItem the builder made for it; a record's
    components become its fields and its canonical constructor.

This is deliberately not a full Java parser: declarations and annotation
arguments are read precisely, statement-level code is only scanned for
watched calls and string/class-literal arguments, and local and anonymous
types are not declarations of the model.
"""

from __future__ import annotations

import re
import sys
import unicodedata

from mecheck.model.items import (
    AnnotationUse,
    CallSite,
    ConstructorItem,
    FieldItem,
    Members,
    MethodItem,
    Param,
)

MODIFIERS = frozenset([
    "public", "private", "protected", "static", "final", "abstract", "synchronized",
    "native", "transient", "volatile", "strictfp", "default", "sealed",
])

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
# create; the reader takes them by index or by unpacking.
Token = tuple[str, str, int]

# The words the declaration scan reads.  The lexer marks them and each '@'
# for it, and each brace while a mark waits to be read; the scan reads any
# other brace as it is lexed.  A token list read afresh has all marked.
_KEYWORDS = frozenset(["package", "import", *TYPE_KEYWORDS])
_MARKED = _KEYWORDS | {"{", "}", "@"}

# The rest of an identifier: re's \w is exactly str.isalnum() plus '_'.
_IDENT_REST = re.compile(r"[\w$]*")
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


# Declaration-level text, one token, blank run or comment per match; the
# group numbers are the codes _lex dispatches on.  Whatever the pattern
# does not lex, group 10 hands to the character loop (_lex_char): a
# non-ASCII character, a text block, and a literal or comment that is not
# closed.  \w is exactly str.isalnum() plus '_'.
_LEX = re.compile(
    # 1: an identifier; it, a line break and punctuation take the blanks
    # after them along
    r"([A-Za-z_$][\w$]*)[ \t\r\f]*"
    r"|[ \t\r\f]+"
    r"|(\n)[ \t\r\f]*"  # 2: a line break
    # 3: punctuation, every ASCII character that starts nothing else but
    # the marked '{', '}' and '@' (a class of what it is compiles far
    # faster than one of what it is not)
    r"|([\x00-\x08\x0b\x0e-\x1f!#%&(-.:-?\[-^`|~\x7f]|/(?![/*]))[ \t\r\f]*"
    r"|(\{)"  # 4
    r"|([}@])[ \t\r\f]*"  # 5
    r"|//[^\n]*"
    r"|(/\*.*?\*/)"  # 6: a block comment
    r'|((?!""")"[^"\\\n]*(?:\\.[^"\\\n]*)*")'  # 7: a string literal
    r"|('[^'\\\n]*(?:\\.[^'\\\n]*)*')"  # 8: a char literal
    # 9: a number; a dot in it is followed by a digit, else it is member
    # access (e.g. 1 .toString())
    r"|([0-9](?:\w|\.(?=[0-9]))*)"
    r"|(.)",  # 10
    re.S,
)


def _lex_char(text: str, i: int, line: int, toks: list[Token]) -> tuple[int, int]:
    """The character loop, for one token at i that _LEX leaves to it.
    Returns where lexing goes on, and its line; the index is -1 where the
    token stream ends."""
    ch = text[i]
    if ch.isalpha():
        j = _IDENT_REST.match(text, i + 1).end()
        toks.append((IDENT, sys.intern(text[i:j]), line))
        return j, line
    if ch == "/":  # a block comment that is never closed
        return -1, line
    n = len(text)
    if text.startswith('"""', i):
        end = text.find('"""', i + 3)
        if end == -1:
            return -1, line
        toks.append((STRING, text[i : end + 3], line))
        return end + 3, line + text.count("\n", i, end + 3)
    if ch == '"' or ch == "'":  # not closed on its line: dropped up to the line end
        j = i + 1
        while j < n and text[j] != "\n":
            j += 2 if text[j] == "\\" and j + 1 < n else 1
        return j, line
    if ch.isdigit():
        j = i + 1
        while j < n and (text[j].isalnum() or text[j] in "._"):
            if text[j] == "." and not (j + 1 < n and text[j + 1].isdigit()):
                break
            j += 1
        toks.append((NUMBER, text[i:j], line))
        return j, line
    if unicodedata.category(ch) in _IDENT_START_CATEGORIES:
        j = _ident_end(text, i + 1)
        prev = toks[-1] if toks else None
        if prev is not None and prev[0] == IDENT and text.startswith(prev[1], i - len(prev[1])):
            # continues the identifier just before it, e.g. the £ of a£b;
            # nothing skipped (blanks, comments, bodies) ends with an
            # identifier char
            toks[-1] = (IDENT, sys.intern(prev[1] + text[i:j]), prev[2])
        else:
            toks.append((IDENT, sys.intern(text[i:j]), line))
        return j, line
    toks.append((PUNCT, ch, line))
    return i + 1, line


class RawType:
    """The declaration scan's record of one type declaration, with the
    members the reader read of it."""

    __slots__ = (
        "simple_name", "kind", "supertype_names", "annotations", "line", "nesting",
        "body_start", "body_end", "components", "fused", "members",
    )

    def __init__(self, simple_name: str, kind: str, supertype_names: tuple[str, ...],
                 annotations: tuple[AnnotationUse, ...], line: int, nesting: tuple[str, ...],
                 body_start: int, components: tuple = ()):
        self.simple_name = simple_name
        self.kind = kind
        self.supertype_names = supertype_names
        self.annotations = annotations
        self.line = line
        self.nesting = nesting  # enclosing simple names, outermost first
        self.body_start = body_start  # first token index inside the body
        self.body_end = -1  # index of the closing '}', once the scan has read it
        # a record's components: (component, its annotations, its name's line)
        self.components = components
        self.fused = False  # read by the reader's recursion, not as an orphan
        self.members = None  # (fields, methods, constructors, call sites), as tuples

    @property
    def chain(self) -> tuple[str, ...]:
        return self.nesting + (self.simple_name,)


class FileDecls:
    __slots__ = ("package", "imports", "types")

    def __init__(self):
        self.package: str | None = None
        self.imports: list[str] = []
        self.types: list[RawType] = []


# A construct that runs past the tokens lexed so far is read again each
# time the lexer has lexed on; after this many times at the same place the
# lexer lexes through the body around it, and the time after all the rest,
# so that no input costs more than linear time.
_MAX_STALLS = 16


class _Restart(Exception):
    """A skipped body might be read differently: read the file unskipped."""


class _Short(Exception):
    """A construct runs past the tokens lexed so far."""


class _Reader:
    """One file's reading: the lexer's place, its tokens and marks, the scan's state."""

    __slots__ = ("text", "pos", "line", "done", "skips", "skipped", "toks", "marks",
                 "stall_at", "stalls", "decls", "mk", "depth", "stack", "pending", "pend_end",
                 "stalled", "types_at", "orphans", "drift")

    def __init__(self, text: str, toks: list[Token] | None = None, skips: bool = True):
        self.text = text
        self.pos = self.skipped = self.stalls = self.mk = self.depth = self.pend_end = 0
        self.line = 1
        self.skips = skips  # whether bodies may be skipped
        self.done = toks is not None  # all the text is lexed
        self.toks = [] if toks is None else toks
        self.marks = [] if toks is None else [k for k, t in enumerate(toks) if t[1] in _MARKED]
        self.stall_at = self.stalled = -1  # stalled: a construct the scan waits for tokens of
        self.decls = FileDecls()
        self.stack: list[tuple[RawType, int]] = []  # the scan's open types, with body depths
        self.pending: list[AnnotationUse] = []  # the scan's pending annotations
        self.types_at: dict[int, RawType] = {}  # the types it opened, by keyword index
        self.orphans = 0  # open types the reader does not recurse into
        self.drift: list[int] = []  # constructs the scan read unbalanced braces in


def tokenize_java(text: str) -> list[Token]:
    """Lossy declaration-level Java tokenizer (identifiers, literals,
    single-char punct) that reads the file's declarations and members on the
    way.  Comments and whitespace are dropped; literals keep their quotes.
    An unterminated comment or text block ends the stream, an unterminated
    string or char literal its line; only '\\n' breaks lines.  A body the
    reader skips keeps only its braces; one is tokenized in full if it holds
    an annotation or a watched callee's name, the text ends in it, the scan
    holds an annotation before it, or an orphan type is open."""
    global _handed
    for skips in (True, False):
        r = _Reader(text, skips=skips)
        try:
            _lex(r, 0 if skips else -1)
            _scan(r)
            _read_file(r)
            break
        except _Restart:  # raised only while bodies are skipped
            pass
    _handed = (r.toks, r.decls)
    return r.toks


# The last token list tokenize_java returned, with what its reader read.
_handed: tuple[list[Token], FileDecls] | None = None


def scan_declarations(toks: list[Token]) -> FileDecls:
    """Package, imports, and type declaration skeletons, with their
    members read.  The tokens tokenize_java returned last are not read
    again: their declarations are handed out once.  Any other token list
    is read afresh."""
    global _handed
    if _handed is not None and _handed[0] is toks:
        decls = _handed[1]
        _handed = None
        return decls
    r = _Reader("", toks)
    _scan(r)
    return _read_file(r)


def _lex(r: _Reader, depth: int) -> None:
    """Lex on from r.pos: with depth 0 to just past the next '{', with depth
    1 first through the '}' that closes the last '{' lexed, with -1 to the
    end."""
    text, toks, marks, i, line = r.text, r.toks, r.marks, r.pos, r.line
    append = toks.append
    intern = sys.intern
    lex = _LEX.finditer
    while True:
        for m in lex(text, i):
            code = m.lastindex
            if code == 1:
                word = intern(m[1])
                if word in _KEYWORDS:
                    marks.append(len(toks))
                append((IDENT, word, line))
            elif code == 3:
                append((PUNCT, m[3], line))
            elif code == 2:
                line += 1
            elif code is None:  # blanks or a line comment
                continue
            elif code == 4 or code == 5:
                ch = m[code]
                if ch != "@" and r.mk == len(marks):
                    # no mark waits for the scan: it reads the brace on the spot
                    if ch == "{":
                        r.depth += 1
                    else:
                        _close(r, len(toks))
                else:
                    marks.append(len(toks))
                append((PUNCT, ch, line))
                if ch == "{":
                    if not depth:
                        r.pos = m.end()
                        r.line = line
                        return
                    if depth > 0:
                        depth += 1
                elif depth > 0 and ch == "}":
                    depth -= 1
            elif code == 6:
                line += text.count("\n", m.start(), m.end())
            elif code == 7:
                append((STRING, m[7], line))
            elif code == 8:
                append((CHAR, m[8], line))
            elif code == 9:
                end = m.end()
                if text.startswith(".", end) and text[end + 1 : end + 2].isdigit():
                    # a dot before a non-ASCII digit continues the number
                    i, line = _lex_char(text, m.start(), line, toks)
                    break
                append((NUMBER, m[9], line))
            else:
                i, line = _lex_char(text, m.start(), line, toks)
                break
        else:
            i = -1
        if i < 0:  # the text or the token stream ended
            r.done = True
            r.pos = len(text)
            r.line = line
            return


# What the scan of a skipped body stops at; the group numbers are the codes
# _skip dispatches on.  Literals and comments are matched whole, the way
# the lexer reads them, so no brace or name inside them is seen.  Each
# match first jumps over the characters no stop starts with, and over the
# string and char literals closed on their line with no escaped line break
# in them; a '/' or a callee's first letter that starts no stop, and the
# end of the text, match with no group, so that no search fails and starts
# over, and no match gives back what the jump took.
_CALLEE_STARTS = "".join(sorted({name[0] for name in WATCHED_CALLEES}))
_BODY = re.compile(
    rf"""(?:[^{{}}"'/@{_CALLEE_STARTS}]+"""
    r'|(?!""")"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"'
    r"|'[^'\\\n]*(?:\\[^\n][^'\\\n]*)*')*(?:"
    r"(\{)|(\})"
    # 3: a text block or a comment
    r'|(""".*?"""|//[^\n]*|/\*.*?\*/)'
    # 4: a string or char literal, ending at its line end when unterminated
    r'|((?!""")"[^"\\\n]*(?:\\.[^"\\\n]*)*"?|\'[^\'\\\n]*(?:\\.[^\'\\\n]*)*\'?)'
    # 5: an annotation, a watched callee's name that no ASCII word character
    # precedes and no word character follows, or a text block or comment
    # that is never closed
    r'|(@|"""|/\*|(?<![A-Za-z0-9_$])(?:' + "|".join(sorted(WATCHED_CALLEES)) + r")(?![\w$]))"
    rf"|[/{_CALLEE_STARTS}]|\Z)",
    re.S,
)


def _skip(r: _Reader, pos: int, line: int) -> int:
    """Scan a skipped body from pos, at line, just past its '{', to the '}'
    that closes it, which it emits; returns the index past that '}', or -1
    where the body is to be lexed in full."""
    text = r.text
    depth = 1
    esc = 0  # escaped line breaks inside literals, which do not count as lines
    for m in _BODY.finditer(text, pos):
        code = m.lastindex
        if code is None:
            continue
        if code == 4:
            start, end = m.span(4)
            if text.find("\n", start, end) >= 0:
                esc += text.count("\n", start, end)
        elif code == 2:
            depth -= 1
            if depth == 0:
                end = m.start(2)
                line += text.count("\n", pos, end) - esc
                if r.mk == len(r.marks):
                    _close(r, len(r.toks))
                else:
                    r.marks.append(len(r.toks))
                r.toks.append((PUNCT, "}", line))
                return end + 1
        elif code == 1:
            depth += 1
        elif code == 5:
            return -1
    # a comment runs to the end of the text, or the body is never closed
    return -1


def _more(r: _Reader, p: int) -> None:
    """Lex on for a construct from token p that runs past the tokens lexed so
    far, a '{' in it through to its '}' (with p at their end, on to the next
    '{').  Once the same place has asked _MAX_STALLS times, lex through the
    '}' that closes the body around the construct; the time after, all the
    rest."""
    if 0 <= r.stalled < p:
        p = r.stalled
    r.stalls = r.stalls + 1 if p == r.stall_at else 1
    r.stall_at = p
    if r.stalls <= _MAX_STALLS:
        depth = 1 if p < len(r.toks) else 0
    elif r.stalls == _MAX_STALLS + 1:  # the braces open from p on, and the body's
        depth = 1 + sum(1 if t[1] == "{" else -1 for t in r.toks[p:]
                        if t[0] == PUNCT and t[1] in "{}")
    else:
        depth = -1
    _lex(r, depth)
    if r.mk < len(r.marks):
        _scan(r)


def _scan(r: _Reader) -> None:
    """Read the marks lexed since the scan last ran: package, imports,
    annotations, type headers and braces, as a scan of the whole token list
    reads them; stop before a construct that runs past the tokens lexed so
    far (r.stalled).  A type it opens is an orphan until the reader claims it."""
    toks, marks, stack, mk = r.toks, r.marks, r.stack, r.mk
    n = len(toks)
    nm = len(marks)
    r.stalled = -1
    while mk < nm:
        k = marks[mk]
        mk += 1
        text = toks[k][1]
        if text == "{":
            r.depth += 1
        elif text == "}":
            _close(r, k)
        elif text == "@":
            if k + 1 < n and toks[k + 1][1] == "interface":
                continue  # an annotation type: the keyword reads it
            anno, j = _parse_annotation(toks, k)
            if j >= n and not r.done:
                r.stalled = k
                break
            mk = _pass(r, mk, j, j, k)
            if r.pending:
                _settle(r, k)
            r.pending.append(anno)
            r.pend_end = j
        elif text == "package":
            if r.depth == 0 and r.decls.package is None:
                # it cannot run past the last token, a '{' until all is lexed
                r.decls.package, j = _read_dotted(toks, k + 1)
                r.pending = []  # the package's own annotations
                r.pend_end = j
                while mk < nm and marks[mk] < j:
                    mk += 1
        elif text == "import":
            if r.depth == 0:
                j = k + 1
                while j < n and toks[j][1] != ";":
                    j += 1
                if j >= n and not r.done:
                    r.stalled = k
                    break
                name = "".join([tok[1] for tok in toks[k + 1 : j]])
                if j > k + 1 and toks[k + 1][1] == "static":
                    name = "static " + name[6:]
                r.decls.imports.append(name)
                if r.pending:
                    _settle(r, k)
                r.pend_end = j + 1
                while mk < nm and marks[mk] <= j:
                    mk += 1
        elif (
            text in TYPE_KEYWORDS
            and (r.depth == 0 or (stack and r.depth == stack[-1][1]))
            and (k == 0 or toks[k - 1][1] != ".")
            and k + 1 < n
            and toks[k + 1][0] == IDENT
        ):
            raw, j = _parse_type_header(toks, k, stack)
            if raw is None:
                if not r.done:
                    r.stalled = k
                break  # (with all lexed, no '{' follows: the scan reads no further)
            mk = _pass(r, mk, j, j - 1, k)
            if r.pending:
                _settle(r, k)
            raw.annotations = tuple(r.pending)
            r.pending = []
            r.pend_end = j
            r.decls.types.append(raw)
            r.types_at[k] = raw
            r.depth += 1
            stack.append((raw, r.depth))
            r.orphans += 1
    r.mk = mk - 1 if r.stalled >= 0 else nm  # (all read, or no '{' follows a header)


def _pass(r: _Reader, mk: int, j: int, h: int, start: int) -> int:
    """The first mark from mark mk on not before token j, where the construct
    the scan read from token start ends.  If its braces marked before token
    h do not balance, a member walk that counts them parts ways with the
    scan's depth: start is noted in r.drift."""
    marks = r.marks
    toks = r.toks
    nm = len(marks)
    balance = low = 0
    while mk < nm and marks[mk] < j:
        if marks[mk] < h:
            text = toks[marks[mk]][1]
            balance += text == "{"
            if text == "}":
                balance -= 1
                low = min(low, balance)
        mk += 1
    if balance or low:
        r.drift.append(start)
    return mk


def _close(r: _Reader, k: int) -> None:
    """The scan reads the '}' at token k."""
    r.depth -= 1
    stack = r.stack
    if stack and r.depth < stack[-1][1]:
        raw = stack.pop()[0]
        raw.body_end = k
        if not raw.fused:
            r.orphans -= 1


def _settle(r: _Reader, k: int) -> bool:
    """Clear the scan's pending annotations if a token between the end of
    the last of them and token k does (a ';', a literal, or a word that is
    no modifier); returns whether none are pending."""
    for kind, text, _ in r.toks[r.pend_end : k]:
        if text not in MODIFIERS if kind == IDENT else kind != PUNCT or text == ";":
            break
    else:
        return not r.pending
    r.pending = []
    return True


def _read_file(r: _Reader) -> FileDecls:
    """Read the file: each top-level type the scan opens, with the types
    nested in it, and then each orphan on its own."""
    types = r.decls.types
    k = 0
    while k < len(types) or not r.done:
        if k == len(types):
            _more(r, len(r.toks) - 1)
            continue
        raw = types[k]
        k += 1
        if not raw.nesting:
            raw.fused = True  # claimed: no orphan
            r.orphans -= raw.body_end < 0
            _read_body(r, raw, raw.body_start, True)
    for raw in types:
        if not raw.fused:
            _read_body(r, raw, raw.body_start, False)
    return r.decls


def _read_body(r: _Reader, raw: RawType, i: int, recurse: bool) -> None:
    """Read raw's members and watched calls, from token i to where the scan
    closes its body, into raw.members.  With recurse, a nested type the scan
    opened at the same keyword and '{' is read the same way; any other is
    skipped to the '}' that balances its '{'.  A construct that runs past the
    tokens lexed so far is read again, its items dropped, once lexed on."""
    toks = r.toks
    fields, methods, ctors, calls = raw.members = ([], [], [], [])
    while raw.kind == "enum":
        j = _skip_enum_constants(toks, i, raw.body_end if raw.body_end >= 0 else len(toks), calls)
        if j < len(toks) or r.done:
            i = j
            break
        del calls[:]
        _more(r, i)
    name = raw.simple_name
    pending: list[AnnotationUse] = []
    n = 0  # where reading stops; 0 to find it again when the lexer may have lexed on
    while True:
        if i >= n:
            n = raw.body_end if raw.body_end >= 0 else len(toks)
            if i >= n:
                if raw.body_end >= 0 or r.done:
                    break
                _more(r, i)
                n = 0
                continue
        kind, text, line = toks[i]
        if kind != IDENT:
            if kind != PUNCT or text == ";":
                pending = []
            if kind != PUNCT or text not in "@{<":
                i += 1
                continue
        elif text in MODIFIERS:
            i += 1
            continue
        count = len(fields)
        mark = len(calls)
        try:
            if text == "@":
                if i + 1 < n and toks[i + 1][1] == "interface":
                    i += 1
                    continue
                if r.stalled == i:  # the scan waits for the rest of it too
                    raise _Short
                anno, j = _parse_annotation(toks, i)
                if j >= len(toks) and not r.done:
                    raise _Short
                pending.append(anno)
                i = j
                continue
            if text == "{":  # an instance or static initializer block
                j = _read_block(r, i, calls)
                n = 0
            elif text == "<":
                j = _skip_balanced(toks, i, "<", ">")
                if j >= len(toks) and not r.done:
                    raise _Short
                i = j
                continue
            elif text in TYPE_KEYWORDS and i + 1 < n and toks[i + 1][0] == IDENT:
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
                nested = r.types_at.get(i) if recurse and j < n else None
                if nested is not None and nested.body_start == j + 1:
                    nested.fused = True
                    r.orphans -= nested.body_end < 0
                    _read_body(r, nested, j + 1, True)
                    j = _after_nested(r, nested, j)
                    n = 0
                elif j < n:
                    j = _skip_balanced(toks, j, "{", "}")
            else:
                j = i + 1
                if text == name and j < n and toks[j][1] == "(":
                    method = None  # a constructor
                else:
                    if j < n and toks[j][0] == IDENT:  # a one-word type
                        type_text = text
                    else:
                        type_text, j = _parse_type_ref(toks, i, n)
                        if j >= len(toks) and not r.done:
                            raise _Short
                        if type_text is None or j >= n or toks[j][0] != IDENT:
                            pending = []
                            i += 1
                            continue
                    if not (j + 1 < n and toks[j + 1][1] == "("):
                        # a field declaration, possibly with several declarators
                        j = _parse_field_decl(toks, j, n, type_text, tuple(pending), fields, calls)
                        if j >= len(toks) and not r.done:
                            raise _Short
                        pending = []
                        i = j
                        continue
                    method = toks[j]
                    j += 1
                # its parameters, any throws clause, and a body or ';'
                params, j = _parse_params(toks, j, n)
                if j < n and toks[j][0] == IDENT and toks[j][1] == "throws":
                    while j < n and toks[j][1] not in ("{", ";"):
                        j += 1
                if j < n and toks[j][1] == "{":
                    j = _read_block(r, j, calls)
                    n = 0
                elif j < n and toks[j][1] == ";":
                    j += 1
                if j >= len(toks) and not r.done:
                    raise _Short
                if method is None:
                    ctors.append((params, tuple(pending), line))
                else:
                    methods.append((method[1], type_text, params, tuple(pending), method[2]))
                pending = []
                i = j
                continue
            if j >= len(toks) and not r.done:
                raise _Short
        except _Short:
            del fields[count:]
            del calls[mark:]
            _more(r, i)
            n = 0
            continue
        pending = []
        i = j


def _after_nested(r: _Reader, nested: RawType, h: int) -> int:
    """Past the '}' that balances the nested type's '{' at token h: the '}'
    the scan closed it at, unless the scan read unbalanced braces in its body
    (annotation arguments, type headers); then a body skipped so far might be
    read differently, and the file is read again."""
    end = nested.body_end
    if not any(h < d and (end < 0 or d < end) for d in r.drift):
        return end + 1 if end >= 0 else len(r.toks)
    if r.skipped:
        raise _Restart
    j = _skip_balanced(r.toks, h, "{", "}")
    while j >= len(r.toks) and not r.done:
        _more(r, h)
        j = _skip_balanced(r.toks, h, "{", "}")
    return j


def _read_block(r: _Reader, b: int, calls: list) -> int:
    """The body from its '{' at b, for its watched calls; returns the index
    past its '}'.  If b is the last token lexed, the lexer skips the body to
    its braces but where it holds an '@' or a watched callee's name, the scan
    waits for a construct or holds an annotation, or an orphan is open; such
    a body is lexed in full once the reader lexes on."""
    toks = r.toks
    if b == len(toks) - 1 and r.skips and not r.done and r.stalled < 0 and not r.orphans and (
        not r.pending or _settle(r, b)
    ):
        i = _skip(r, r.pos, r.line)
        if i >= 0:
            r.pos = i
            r.line = toks[-1][2]  # the line of the '}' it emitted
            r.skipped += 1
            _lex(r, 0)
            if r.mk < len(r.marks):
                _scan(r)
    if b + 1 < len(toks) and toks[b + 1][1] == "}":  # what most skipped bodies leave
        return b + 2
    end = _skip_balanced(toks, b, "{", "}")
    _scan_calls(toks, b + 1, end - 1, calls)
    return end


def _read_dotted(toks: list[Token], i: int) -> tuple[str, int]:
    start = i
    n = len(toks)
    while i < n and toks[i][0] == IDENT:
        i += 1
        if i >= n or toks[i][1] != ".":
            break
        i += 1
    return "".join(t[1] for t in toks[start:i]), i + 1 if i < n and toks[i][1] == ";" else i


def _parse_type_header(toks, i, stack):
    """From the class/interface/enum/record keyword to its opening brace;
    (None, len(toks)) when no '{' follows."""
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
        i += 1
        if word in ("extends", "implements"):
            names, i = _parse_type_list(toks, i)
            supers.extend(names)
        elif word == "permits":
            _, i = _parse_type_list(toks, i)
    if i >= n:
        return None, n
    nesting = tuple(rt.simple_name for rt, _ in stack)
    return RawType(name_tok[1], kind, tuple(supers), (), name_tok[2], nesting, i + 1,
                   components), i + 1


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
    """Render type tokens the way a reader would write them, without their
    type annotations."""
    if len(tokens) == 1 and tokens[0][1] != "@":
        return tokens[0][1]
    out: list[str] = []
    k = 0
    while k < len(tokens):
        text = tokens[k][1]
        if text == "@":
            _, k = _parse_annotation(tokens, k)
            continue
        k += 1
        if text == ",":
            out.append(", ")
        elif text in ("<", ">", "[", "]", ".", "(", ")"):
            out.append(text)
        else:
            if out and (out[-1][-1].isalnum() or out[-1][-1] in "_$?>]"):
                out.append(" ")
            out.append(text)
    return sys.intern("".join(out).strip())


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
    attrs: dict[str, list[str]] = {}
    for part in _split_top_level(tokens, ",") if tokens else ():
        if not part:
            continue
        if len(part) >= 2 and part[0][0] == IDENT and part[1][1] == "=":
            key = part[0][1]
            part = part[2:]
        else:
            key = "value"
        if key not in attrs:
            attrs[key] = _parse_annotation_value(part)
    return attrs


def _parse_annotation_value(tokens: list[Token]) -> list[str]:
    if not tokens:
        return []
    if tokens[0][1] == "{" and tokens[-1][1] == "}":
        return [_render_annotation_scalar(part)
                for part in _split_top_level(tokens[1:-1], ",") if part]
    return [_render_annotation_scalar(tokens)]


def _render_annotation_scalar(tokens: list[Token]) -> str:
    if len(tokens) == 1 and tokens[0][0] == STRING:
        return decode_java_string(tokens[0][1])
    return "".join(t[1] for t in tokens)


def _split_top_level(tokens: list[Token], sep: str, angles: bool = False) -> list[list[Token]]:
    """Split tokens at each sep outside brackets; with angles, also outside
    a generic type's <...> (each '>' of '>>' and '>>>' is a token of its
    own), as in a parameter list, where '<' is never a less-than outside
    brackets."""
    parts: list[list[Token]] = [[]]
    depth = 0
    nest = 0
    for tok in tokens:
        text = tok[1]
        if text in ("(", "{", "["):
            depth += 1
        elif text in (")", "}", "]"):
            depth -= 1
        elif angles and depth == 0 and text in ("<", ">"):
            nest += 1 if text == "<" else -1
        if text == sep and depth == 0 and nest == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    return parts


# A Unicode escape (JLS 3.3): a backslash that an even number of
# backslashes precedes, one 'u' or more, four hex digits.
_UNICODE_ESCAPE = re.compile(r"(?<!\\)((?:\\\\)*)\\u+([0-9A-Fa-f]{4})")
# An escape sequence (JLS 3.10.7); an octal one takes up to three digits
# when the first is 0-3, up to two otherwise.
_ESCAPE = re.compile(r"\\([0-3][0-7]{0,2}|[4-7][0-7]?|.)", re.S)
_ESCAPES = {"b": "\b", "s": " ", "t": "\t", "n": "\n", "f": "\f", "r": "\r",
            '"': '"', "'": "'", "\\": "\\"}


def decode_java_string(lexeme: str) -> str:
    """String literal lexeme (quotes included) -> text value: Unicode
    escapes are translated first, then escape sequences.  A backslash
    before any other character stands for that character.  A text block
    keeps its text as written."""
    if lexeme.startswith('"""'):
        return lexeme[3:-3]
    body = lexeme[1:-1]
    if "\\" not in body:
        return body
    body = _UNICODE_ESCAPE.sub(lambda m: m[1] + chr(int(m[2], 16)), body)
    return _ESCAPE.sub(_unescape, body)


def _unescape(m: re.Match) -> str:
    escape = m[1]
    if escape[0] in "01234567":
        return chr(int(escape, 8))
    return _ESCAPES.get(escape, escape)


def extract_members(toks: list[Token], raw: RawType, owner) -> Members:
    """The members and watched call sites the reader read of raw's body,
    as model items owned by owner.  Call sites are numbered in source
    order."""
    fields, methods, ctors, calls = raw.members
    field_items = [FieldItem(name, type_name, annos, owner, line)
                   for name, type_name, annos, line in fields]
    ctor_items = [ConstructorItem(params, annos, owner, line) for params, annos, line in ctors]
    if raw.kind == "record":
        _add_record_members(raw, owner, field_items, ctor_items)
    path = owner.file_path
    return Members(
        tuple(field_items),
        tuple([MethodItem(name, type_name, params, annos, owner, line)
               for name, type_name, params, annos, line in methods]),
        tuple(ctor_items),
        tuple([CallSite(callee, args, owner, path, line, ordinal=k)
               for k, (callee, args, line) in enumerate(calls)]),
    )


def _add_record_members(raw, owner, fields, ctors):
    """A record's components are its first fields (a varargs component
    `T...` one of type `T[]`), and the parameters of its canonical
    constructor unless the body declares that constructor with its
    parameter list.  (A compact canonical constructor, `Name {`, reads as
    an initializer block.)"""
    fields[:0] = [
        FieldItem(param.name,
                  sys.intern(param.type_name[:-3] + "[]") if param.type_name.endswith("...")
                  else param.type_name, annos, owner, line)
        for param, annos, line in raw.components
    ]
    params = tuple(param for param, _, _ in raw.components)
    types = [param.type_name for param in params]
    if not any([p.type_name for p in ctor.params] == types for ctor in ctors):
        ctors.insert(0, ConstructorItem(params, (), owner, raw.line))


def _skip_enum_constants(toks, lo, hi, calls):
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
            _scan_calls(toks, lo, i, calls)
            return i + 1
        i += 1
    _scan_calls(toks, lo, hi, calls)
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


def _parse_params(toks, i, n):
    """i points at '('; returns (params, index past ')')."""
    if i + 1 < n and toks[i + 1][1] == ")":
        return (), i + 2
    if (
        i + 3 < n
        and toks[i + 3][1] == ")"
        and toks[i + 1][0] == IDENT
        and toks[i + 2][0] == IDENT
        and toks[i + 1][1] != "final"
    ):  # one parameter, a one-word type and a name
        return (Param(toks[i + 1][1], toks[i + 2][1]),), i + 4
    j = _skip_balanced(toks, i, "(", ")")
    return tuple(param for param, _, _ in _parse_param_list(toks[i + 1 : j - 1])), j


def _parse_param_list(inner):
    """The parameters (or record components) between a '(' and its ')':
    (param, its annotations, its name's line) for each."""
    params = []
    for part in _split_top_level(inner, ",", angles=True):
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
        # the name is the last identifier; what precedes it is the type
        name_idx = len(part) - 1
        while name_idx > k and part[name_idx][0] != IDENT:
            name_idx -= 1
        if name_idx <= k:
            continue
        name_tok = part[name_idx]
        suffix = ""
        idx = name_idx + 1
        while idx + 1 < len(part) and part[idx][1] == "[" and part[idx + 1][1] == "]":
            suffix += "[]"
            idx += 2
        params.append(
            (Param(sys.intern(_render_type(part[k:name_idx]) + suffix), name_tok[1]), tuple(annos),
             name_tok[2])
        )
    return params


def _parse_field_decl(toks, j, n, type_text, annos, fields, calls):
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
        fields.append((name_tok[1], sys.intern(type_text + suffix), annos, name_tok[2]))
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
            _scan_calls(toks, init_start, j, calls)
        if j < n and toks[j][1] == ",":
            j += 1
            continue
        break
    while j < n and toks[j][1] != ";":
        j += 1
    return j + 1 if j < n else n


def _scan_calls(toks, lo, hi, calls):
    """Append the watched calls in toks[lo:hi] to calls as (callee,
    arguments, line); nested calls are found too."""
    for j in range(lo, hi - 1):
        kind, text, line = toks[j]
        if kind == IDENT and text in WATCHED_CALLEES and toks[j + 1][1] == "(":
            calls.append((text, _parse_call_args(toks, j + 1, hi), line))


def _parse_call_args(toks, i, hi):
    """i points at '('; classify each top-level argument."""
    j = min(_skip_balanced(toks, i, "(", ")"), hi)
    return tuple(_classify_arg(part) for part in _split_top_level(toks[i + 1 : j - 1], ",")
                 if part)


def _classify_arg(part: list[Token]) -> str | None:
    if len(part) == 1 and part[0][0] == STRING:
        return decode_java_string(part[0][1])
    # Foo.class or com.acme.Foo.class
    if len(part) >= 3 and part[-1][1] == "class" and all(
        (t[0] == IDENT if idx % 2 == 0 else t[1] == ".") for idx, t in enumerate(part)
    ):
        return "".join(t[1] for t in part)
    return None
