"""Rule interpreter: each rule is compiled to Python closures, then run.

run_rule compiles a rule's body once per Interpreter into nested
closures, one per statement and one per expression node.  Literal
values, built-in names, argument counts, source spans and whether a
call goes through the query cache are settled at compile time, so
running a rule does no dispatch on node types.  Statements are called
as stmt(slots, sink), expressions as exp(slots).  A call site compiles to
one closure that builds the argument list, counts the call and
dispatches it; for the common shapes of literal and bound-variable
arguments it builds the list itself, so hasAttr(bean, "class") builds
[slots[i], "class"] with no call per argument.  A condition must be a bool or MISSING, so it
is checked at run time, except where its node always gives a bool: ==,
exists, AND, OR, NOT and a call of a built-in declared to return BOOL.

Scoping model: variables are resolved when the rule compiles, and this
one walk also validates the rule: compile_rule records a Diagnostic for
each read that resolves to no binding, each call of an unknown built-in
and each call with a wrong argument count, and rsl/validator.py reports
them.  The rule body, each for and if body and each exists predicate is
a scope; a declaration is visible to the statements after it in its
scope, a for or exists variable to its body or predicate, and an inner
binding shadows an outer one.  Each binding site (for variable, exists
variable, declaration) owns one index in a flat list of slots, and a
read compiles to a fetch of the slot it resolves to; a read that
resolves to none compiles to a raise of "variable 'x' is not bound" at
its position, and a diagnosed call still compiles to a call that
Registry.call fails.  run_rule runs the body over a fresh list of slots,
one per binding site, so nothing is pushed, popped or cleared at run
time: a for loop or an exists writes its variable's slot per element, a
declaration writes its own.  The type a rule declares for a variable is
not kept or checked at run time.  AND and OR do not evaluate their right
side when the left side decides.

A failed assert renders the message template and emits a BugReport; the
report's position comes from the first message argument that carries a
source location.  Any runtime failure (unbound name, a built-in type or
precondition error) aborts only the current rule via RuntimeRuleError.

Every built-in call goes through Registry.call, which runs the
built-in's checked entry; a call of a cached built-in, and any call that
is the container of an exists, goes through canonical_key and
QueryCache.get_or_compute first.  All three are looked up when the rule
is compiled, so wrappers installed on them before a rule runs see every
call.

Shared walk: run_checker hands the pack to compile_pack, which treats it
as a prefix tree (plan_pack).  Two or more rules share a statement when
it and every statement before it are equal but for their spans (same
variable names, literals and built-ins).  A declaration can be shared,
and so can a for or if that is the last statement of its body; the walk
then goes on inside that statement's body.  Rules that share their first
statement are run as one walk inside the first such rule's run_rule call:
each shared statement is evaluated once per binding with the closures of
the first rule that shares it (whose EvalStats count its calls), and at
each binding the statements each rule does not share run with the rule's
own closures, EvalStats and error handling, in pack order of each part's
first rule.
The slots of the shared statements are numbered alike in every rule,
since compiling numbers binding sites in source order, so all the rules
of a walk run over one list of slots.  The other rules' reports are held
and appended, with fresh ordinals, by their own run_rule calls, so the
sink and the rule errors come out as running the rules one by one gives
them.  A rule error in a rule's own statements stops that rule only; one
in a shared statement stops every rule the statement still runs, each
with its own name and its own line and column of the statement.  Every
rule still gets one run_rule call, in pack order, and a single run_rule
call on an interpreter compile_pack has not seen runs the rule alone.

Indexed exists: with a QueryCache, `exists (T x in C) (f(x) == e)` is
answered from a hash index of f over C (a hash semi-join) when the
predicate, parentheses removed, is an == of which exactly one side
mentions x, that side is built only from built-in calls, literals and x,
and the other side e neither mentions x nor contains an exists.  So is
`exists (T a in A) (exists (U b in B(a)) (f(b) == e))`, with one index
of f over every b of every B(a), when the inner exists qualifies, B(a)
is built only from built-in calls, literals and a, and e does not
mention a: L lookups among B elements of all the B(a) then cost about
L + B evaluations, with no B(a) evaluated per lookup.  A call that is an
exists container goes through the query cache, so it gives the same
object each time.  The index of one (exists node, container object) pair
is complete or absent.  The first lookup on a non-empty container
evaluates f once at every element, in scan order, and keeps a map from
each f-value to the predicate evaluations a scan makes up to its first
element; if f fails anywhere or gives a value without an exact hash key
(a number or a list; see values.index_key), or a B(a) fails or is not a
list, or every B(a) is empty, the pair keeps no index and every lookup
of it scans.  The scan is the reference.  A lookup evaluates e once: an
e without a key scans, and otherwise exists_predicate_evals gets what
the scan counts: the map's count on a match, the count of every element
(and every a) on a miss.  Since f has succeeded at every element before
e runs, an error from e is the one the scan raises, and counts what the
scan counts up to the first element.  Without a cache every exists
scans.
"""

from __future__ import annotations

import operator
from typing import Callable

from mecheck import builtins as builtins_mod
from mecheck.model.project import ProjectModel
from mecheck.record import Record
from mecheck.rsl import ast
from mecheck.runtime import values as V
from mecheck.runtime.cache import QueryCache, canonical_key

# A compiled expression: slots -> value.  A compiled statement: (slots, sink) -> None.
CompiledExp = Callable[[list], object]
CompiledStmt = Callable[[list, list], None]
# Compile-time scopes, innermost last: variable name -> slot.
Scopes = list[dict[str, int]]

# Nodes whose value is always a Python bool, so a condition needs no check.
_BOOL_NODES = (ast.Eq, ast.Exists, ast.And, ast.Or, ast.Not)


# What compiling a rule finds wrong with it; rsl/validator.py reports these.
UNDECLARED_VARIABLE = "undeclared-variable"
UNKNOWN_BUILTIN = "unknown-builtin"
BUILTIN_ARITY = "builtin-arity"


class Diagnostic(Record):
    __slots__ = ("code", "message", "line", "column")
    code: str
    message: str
    line: int
    column: int


class BugReport(Record):
    __slots__ = ("rule_name", "message", "file_path", "line", "ordinal")
    rule_name: str
    message: str
    file_path: str
    line: int
    ordinal: int


class RuntimeRuleError(Exception):
    def __init__(self, rule_name: str, cause: str, line: int, column: int):
        super().__init__(
            f"rule {rule_name} failed at line {line}, column {column}: {cause}"
        )
        self.rule_name = rule_name
        self.cause = cause
        self.line = line
        self.column = column


class EvalStats:
    """Counters one Interpreter adds to as its rules run."""

    __slots__ = ("builtin_calls", "exists_predicate_evals", "exists_index_lookups")

    def __init__(self):
        self.builtin_calls = 0
        self.exists_predicate_evals = 0
        self.exists_index_lookups = 0


def _walk(exp: ast.Exp):
    """exp and every expression below it."""
    yield exp
    for name in exp.__slots__:
        child = getattr(exp, name)
        for c in child if isinstance(child, tuple) else (child,):
            if isinstance(c, ast.Exp):
                yield from _walk(c)


class EqPlan(Record):
    """How an index answers `exists (T x in C) (f(x) == e)`: eq is the
    predicate's equality, and keyed_left says whether f(x), the side that
    mentions x, is its left side."""

    __slots__ = ("eq", "keyed_left")
    eq: ast.Eq
    keyed_left: bool


def _unparen(exp: ast.Exp) -> ast.Exp:
    while isinstance(exp, ast.Paren):
        exp = exp.inner
    return exp


def _mentions(exp: ast.Exp, var: str) -> bool:
    return any(isinstance(n, ast.Identifier) and n.name == var for n in _walk(exp))


def _built_from(exp: ast.Exp, var: str) -> bool:
    """Whether exp is built only from built-in calls, literals and reads of var."""
    return all(
        isinstance(n, (ast.FunctionCall, ast.Literal))
        or (isinstance(n, ast.Identifier) and n.name == var)
        for n in _walk(exp)
    )


def plan_exists(exp: ast.Exists) -> EqPlan | None:
    """The index plan for an exists node, or None when it must scan."""
    pred = _unparen(exp.predicate)
    if not isinstance(pred, ast.Eq):
        return None
    lhs_x, rhs_x = _mentions(pred.lhs, exp.var), _mentions(pred.rhs, exp.var)
    if lhs_x == rhs_x:
        return None
    keyed, probe = (pred.lhs, pred.rhs) if lhs_x else (pred.rhs, pred.lhs)
    if not _built_from(keyed, exp.var):
        return None
    # a nested exists in e would count predicate evals once per scanned element
    if any(isinstance(n, ast.Exists) for n in _walk(probe)):
        return None
    return EqPlan(pred, keyed_left=lhs_x)


def plan_nested(exp: ast.Exists) -> ast.Exists | None:
    """The inner exists of `exists (T a in A) (exists (U b in B(a)) (f(b) ==
    e))` when one index over every B(a) can answer the whole node: the
    predicate, parentheses removed, is an exists that plan_exists accepts,
    B(a) is built only from built-in calls, literals and a, and e does not
    mention a.  None otherwise."""
    inner = _unparen(exp.predicate)
    if not isinstance(inner, ast.Exists):
        return None
    plan = plan_exists(inner)
    if plan is None or not _built_from(inner.container, exp.var):
        return None
    probe = plan.eq.rhs if plan.keyed_left else plan.eq.lhs
    return None if _mentions(probe, exp.var) else inner


def _iteration_items(container: object):
    """for/exists containers: a list iterates as is, MISSING is empty,
    any single value is a one-element list."""
    if container is V.MISSING:
        return ()
    if isinstance(container, list):
        return container
    return (container,)


def _render_message(template: str, arg_values: list) -> str:
    parts = template.split("%s")
    out = [parts[0]]
    for value, tail in zip(arg_values, parts[1:]):
        out.append(V.display(value))
        out.append(tail)
    return "".join(out)


class Interpreter:
    """Evaluates rules against one project model.

    One instance runs one rule at a time.  Passing a shared QueryCache
    makes repeated model queries free across rules; passing None turns
    caching off without changing any result.
    """

    def __init__(
        self,
        model: ProjectModel,
        registry: builtins_mod.Registry | None = None,
        cache: QueryCache | None = None,
    ):
        self.model = model
        self.registry = registry or builtins_mod.Registry()
        self.cache = cache
        self.stats = EvalStats()
        self._rule_name = "<none>"
        self._nslots = 0  # binding sites of the rule being compiled
        self._diagnostics: list[Diagnostic] = []  # found in the rule being compiled
        # id(rule) -> (rule, its compile_rule result); holding the rule keeps its id unique
        self._compiled: dict[int, tuple[ast.Rule, tuple]] = {}
        # what compile_pack reads of the compiled rules: id(statement) -> its
        # closure, and id(for or if) -> (its container or condition, the for's slot)
        self._code: dict[int, CompiledStmt] = {}
        self._heads: dict[int, tuple[CompiledExp, int | None]] = {}

    # -- entry points -----------------------------------------------------------

    def run_rule(self, rule: ast.Rule, sink: list[BugReport] | None = None) -> list[BugReport]:
        """Execute one rule; reports are appended to sink (shared sinks
        keep emission ordinals global across rules)."""
        if sink is None:
            sink = []
        body, nslots, _ = self.compile_rule(rule)
        body([None] * nslots, sink)
        return sink

    def compile_rule(self, rule: ast.Rule) -> tuple[CompiledStmt, int, list[Diagnostic]]:
        """The rule's compiled body, its slot count and its diagnostics in
        source order, compiled once per interpreter."""
        entry = self._compiled.get(id(rule))
        if entry is None:
            self._rule_name, self._nslots, self._diagnostics = rule.name, 0, []
            body = self._compile_block(rule.body, [{}])
            entry = self._compiled[id(rule)] = (rule, (body, self._nslots, self._diagnostics))
        return entry[1]

    def _bind(self, scopes: Scopes, name: str) -> int:
        """A new slot for a binding site, visible from now on in the
        innermost scope."""
        slot = scopes[-1][name] = self._nslots
        self._nslots += 1
        return slot

    # -- statements -------------------------------------------------------------

    def _compile_block(self, stmts: tuple[ast.Stmt, ...], scopes: Scopes) -> CompiledStmt:
        compiled = tuple(self._compile_stmt(s, scopes) for s in stmts)
        if len(compiled) == 1:
            return compiled[0]

        def block(slots, sink):
            for stmt in compiled:
                stmt(slots, sink)

        return block

    def _compile_stmt(self, stmt: ast.Stmt, scopes: Scopes) -> CompiledStmt:
        if isinstance(stmt, ast.ForStmt):
            code = self._compile_for(stmt, scopes)
        elif isinstance(stmt, ast.IfStmt):
            code = self._compile_if(stmt, scopes)
        elif isinstance(stmt, ast.AssertStmt):
            code = self._compile_assert(stmt, scopes)
        elif isinstance(stmt, ast.DeclStmt):
            init = self._compile_exp(stmt.init, scopes)
            slot = self._bind(scopes, stmt.var)

            def code(slots, sink):
                slots[slot] = init(slots)
        else:
            raise TypeError(f"unknown statement node: {stmt!r}")
        self._code[id(stmt)] = code
        return code

    def _compile_for(self, stmt: ast.ForStmt, scopes: Scopes) -> CompiledStmt:
        container = self._compile_exp(stmt.container, scopes)
        inner = scopes + [{}]
        slot = self._bind(inner, stmt.var)
        self._heads[id(stmt)] = (container, slot)
        body = self._compile_block(stmt.body, inner)

        def run_for(slots, sink):
            for element in _iteration_items(container(slots)):
                slots[slot] = element
                body(slots, sink)

        return run_for

    def _compile_if(self, stmt: ast.IfStmt, scopes: Scopes) -> CompiledStmt:
        cond = self._compile_cond(stmt.cond, scopes)
        self._heads[id(stmt)] = (cond, None)
        body = self._compile_block(stmt.body, scopes + [{}])

        def run_if(slots, sink):
            if cond(slots):
                body(slots, sink)

        return run_if

    def _compile_assert(self, stmt: ast.AssertStmt, scopes: Scopes) -> CompiledStmt:
        cond = self._compile_cond(stmt.cond, scopes)
        args = tuple(self._compile_exp(arg, scopes) for arg in stmt.message.args)
        template = stmt.message.template
        rule_name = self._rule_name

        def run_assert(slots, sink):
            if cond(slots):
                return
            arg_values = [arg(slots) for arg in args]
            file_path, line = "", 0
            for value in arg_values:
                loc = V.location_of(value)
                if loc is not None:
                    file_path, line = loc
                    break
            sink.append(
                BugReport(
                    rule_name=rule_name,
                    message=_render_message(template, arg_values),
                    file_path=file_path,
                    line=line,
                    ordinal=len(sink),
                )
            )

        return run_assert

    # -- expressions -----------------------------------------------------------------

    def _compile_exp(self, exp: ast.Exp, scopes: Scopes) -> CompiledExp:
        if isinstance(exp, ast.Identifier):
            return self._compile_identifier(exp, scopes)
        if isinstance(exp, ast.Literal):
            value = exp.value
            return lambda slots: value
        if isinstance(exp, ast.FunctionCall):
            return self._compile_call(exp, scopes)
        if isinstance(exp, ast.Paren):
            return self._compile_exp(exp.inner, scopes)
        if isinstance(exp, ast.Eq):
            lhs = self._compile_exp(exp.lhs, scopes)
            rhs = self._compile_exp(exp.rhs, scopes)
            value_eq = V.value_eq
            return lambda slots: value_eq(lhs(slots), rhs(slots))
        if isinstance(exp, ast.Exists):
            return self._compile_exists(exp, scopes)[0]
        if isinstance(exp, ast.And):
            left = self._compile_cond(exp.left, scopes)
            right = self._compile_cond(exp.right, scopes)
            return lambda slots: left(slots) and right(slots)
        if isinstance(exp, ast.Or):
            left = self._compile_cond(exp.left, scopes)
            right = self._compile_cond(exp.right, scopes)
            return lambda slots: left(slots) or right(slots)
        if isinstance(exp, ast.Not):
            operand = self._compile_cond(exp.operand, scopes)
            return lambda slots: not operand(slots)
        raise TypeError(f"unknown expression node: {exp!r}")

    def _compile_cond(self, exp: ast.Exp, scopes: Scopes) -> CompiledExp:
        """exp as a condition: its value must be a bool or MISSING
        (false); anything else fails the rule at exp's position."""
        value_of = self._compile_exp(exp, scopes)
        inner = _unparen(exp)
        if isinstance(inner, _BOOL_NODES):
            return value_of
        if isinstance(inner, ast.FunctionCall):
            spec = self.registry.builtins.get(inner.name)
            if spec is not None and spec.result == builtins_mod.BOOL:
                return value_of
        rule_name, span, is_truthy = self._rule_name, exp.span, V.is_truthy

        def cond(slots):
            value = value_of(slots)
            if value is True or value is False:
                return value
            try:
                return is_truthy(value)
            except V.ValueTypeError as exc:
                raise RuntimeRuleError(
                    rule_name, str(exc), span.line, span.column
                ) from None

        return cond

    def _compile_identifier(self, exp: ast.Identifier, scopes: Scopes) -> CompiledExp:
        slot = _slot_of(exp.name, scopes)
        if slot is not None:
            return operator.itemgetter(slot)
        self._diagnose(UNDECLARED_VARIABLE,
                       f"variable '{exp.name}' is not declared in any enclosing scope", exp.span)
        rule_name, cause, span = self._rule_name, f"variable '{exp.name}' is not bound", exp.span

        def unbound(slots):
            raise RuntimeRuleError(rule_name, cause, span.line, span.column)

        return unbound

    def _compile_args(self, args: tuple[ast.Exp, ...], scopes: Scopes) -> CompiledExp:
        """slots -> a new list of a call's argument values, one closure call
        per argument."""
        compiled = tuple(self._compile_exp(arg, scopes) for arg in args)
        if len(compiled) == 1:
            (first,) = compiled
            return lambda slots: [first(slots)]
        if len(compiled) == 2:
            first, second = compiled
            return lambda slots: [first(slots), second(slots)]
        return lambda slots: [arg(slots) for arg in compiled]

    def _compile_call(self, exp: ast.FunctionCall, scopes: Scopes,
                      cached: bool = False) -> CompiledExp:
        """The call site: one closure that builds the argument list, counts
        the call and dispatches it, through the query cache (get) for a
        cached built-in, or for any built-in when cached is set.  When the
        arguments are only literals, or in the common shapes of literal and
        bound-variable arguments, the closure builds the list itself:
        hasAttr(bean, "class") runs as [slots[a], "class"], with no call
        per argument.  Other shapes build it with _compile_args."""
        name, stats, model, call = exp.name, self.stats, self.model, self.registry.call
        rule_name, line, column = self._rule_name, exp.span.line, exp.span.column
        errors = builtins_mod.CALL_ERRORS
        spec = self.registry.builtins.get(name)
        if spec is None:
            self._diagnose(UNKNOWN_BUILTIN, f"'{name}' is not a known built-in function", exp.span)
        elif len(exp.args) not in spec.arity:
            self._diagnose(BUILTIN_ARITY,
                           builtins_mod.arity_message(name, spec.arity, len(exp.args)), exp.span)
        key_of = get = None
        if self.cache is not None and spec is not None and (cached or spec.cached):
            key_of, get = canonical_key, self.cache.get_or_compute

        folded = [_fold(arg, scopes) for arg in exp.args]
        match folded:
            case [("slot", a)]:
                def call_site(slots):
                    values = [slots[a]]
                    stats.builtin_calls += 1
                    try:
                        if get is None:
                            return call(name, values, model)
                        return get(key_of(name, values), call, name, values, model)
                    except errors as exc:
                        raise RuntimeRuleError(rule_name, str(exc), line, column) from None
            case [("slot", a), ("value", v)]:
                def call_site(slots):
                    values = [slots[a], v]
                    stats.builtin_calls += 1
                    try:
                        if get is None:
                            return call(name, values, model)
                        return get(key_of(name, values), call, name, values, model)
                    except errors as exc:
                        raise RuntimeRuleError(rule_name, str(exc), line, column) from None
            case [("slot", a), ("slot", b)]:
                def call_site(slots):
                    values = [slots[a], slots[b]]
                    stats.builtin_calls += 1
                    try:
                        if get is None:
                            return call(name, values, model)
                        return get(key_of(name, values), call, name, values, model)
                    except errors as exc:
                        raise RuntimeRuleError(rule_name, str(exc), line, column) from None
            case [("slot", a), ("value", v), ("value", w)]:
                def call_site(slots):
                    values = [slots[a], v, w]
                    stats.builtin_calls += 1
                    try:
                        if get is None:
                            return call(name, values, model)
                        return get(key_of(name, values), call, name, values, model)
                    except errors as exc:
                        raise RuntimeRuleError(rule_name, str(exc), line, column) from None
            case _ if all(f is not None and f[0] == "value" for f in folded):
                literals = [f[1] for f in folded]

                def call_site(slots):
                    values = literals.copy()
                    stats.builtin_calls += 1
                    try:
                        if get is None:
                            return call(name, values, model)
                        return get(key_of(name, values), call, name, values, model)
                    except errors as exc:
                        raise RuntimeRuleError(rule_name, str(exc), line, column) from None
            case _:
                values_of = self._compile_args(exp.args, scopes)

                def call_site(slots):
                    values = values_of(slots)
                    stats.builtin_calls += 1
                    try:
                        if get is None:
                            return call(name, values, model)
                        return get(key_of(name, values), call, name, values, model)
                    except errors as exc:
                        raise RuntimeRuleError(rule_name, str(exc), line, column) from None
        return call_site

    def _compile_exists(self, exp: ast.Exists,
                        scopes: Scopes) -> tuple[CompiledExp, tuple | None]:
        """The exists closure and, when a flat index answers it, what a
        nested index over it reads: (container, keyed, probe, slot)."""
        call = _unparen(exp.container)
        if isinstance(call, ast.FunctionCall):
            # an index is keyed on the container object, so it must come back the same
            container = self._compile_call(call, scopes, cached=True)
        else:
            container = self._compile_exp(exp.container, scopes)
        inner = scopes + [{}]
        slot = self._bind(inner, exp.var)
        stats, parts, build = self.stats, None, None
        plan = plan_exists(exp) if self.cache is not None else None
        nested = plan_nested(exp) if self.cache is not None else None
        if plan is not None:
            # an == is always a bool, so its two sides are the whole predicate
            lhs = self._compile_exp(plan.eq.lhs, inner)
            rhs = self._compile_exp(plan.eq.rhs, inner)
            keyed, probe = (lhs, rhs) if plan.keyed_left else (rhs, lhs)
            value_eq = V.value_eq
            parts = (container, keyed, probe, slot)

            def predicate(slots):
                return value_eq(lhs(slots), rhs(slots))

            def build(items, slots):
                return _build_index(items, keyed, slots, slot)
        elif nested is not None:
            # an exists is always a bool, so it is the whole predicate
            predicate, (each, keyed, probe, each_slot) = self._compile_exists(nested, inner)

            def build(items, slots):
                return _build_nested_index(items, each, keyed, slots, slot, each_slot)
        else:
            predicate = self._compile_cond(exp.predicate, inner)
        indexes = self.cache.exists_indexes if build is not None else None

        def exists(slots):
            items = container(slots)
            if build is not None and isinstance(items, list) and items:
                found = _index_lookup(indexes, stats, exp, items, build, probe, slots)
                if found is not None:
                    return found
            for element in _iteration_items(items):
                slots[slot] = element
                stats.exists_predicate_evals += 1
                if predicate(slots):
                    return True
            return False

        return exists, parts

    def _diagnose(self, code: str, message: str, span: ast.Span) -> None:
        self._diagnostics.append(Diagnostic(code, message, span.line, span.column))


def _slot_of(name: str, scopes: Scopes) -> int | None:
    """The slot a read of name resolves to, innermost scope first."""
    for scope in reversed(scopes):
        slot = scope.get(name)
        if slot is not None:
            return slot
    return None


def _fold(exp: ast.Exp, scopes: Scopes) -> tuple[str, object] | None:
    """("value", v) for a literal, ("slot", i) for a bound variable read,
    None for anything else (an unbound read keeps its raising closure)."""
    exp = _unparen(exp)
    if isinstance(exp, ast.Literal):
        return ("value", exp.value)
    if isinstance(exp, ast.Identifier):
        slot = _slot_of(exp.name, scopes)
        if slot is not None:
            return ("slot", slot)
    return None


# -- indexed exists ------------------------------------------------------------


def _index_lookup(indexes: dict[tuple[int, int], tuple], stats: EvalStats, exp: ast.Exists,
                  container: list, build: Callable[[list, list], tuple | None],
                  probe: CompiledExp, slots: list) -> bool | None:
    """Answer a non-empty exists from its index, counting as the scan
    would; None means the scan must answer.  build(container, slots) makes
    the index on the pair's first lookup.  It is given the cache's indexes
    and the stats rather than the interpreter, so that a compiled rule
    holds no reference back to its interpreter and both are freed by
    reference counting."""
    entry = indexes.get((id(exp), id(container)))
    if entry is None:
        # the entry holds the node and the container, so their ids stay unique
        entry = indexes[(id(exp), id(container))] = (exp, container, build(container, slots))
    index = entry[2]
    if index is None:
        return None
    evals_at, miss_evals, probe_evals = index
    try:
        key = V.index_key(probe(slots))
    except RuntimeRuleError:
        stats.exists_predicate_evals += probe_evals
        raise
    if key is None:
        return None
    stats.exists_index_lookups += 1
    evals = evals_at.get(key)
    if evals is None:
        stats.exists_predicate_evals += miss_evals
        return False
    stats.exists_predicate_evals += evals
    return True


def _index_keys(evals_at: dict, evals: int, items: list, keyed: CompiledExp,
                slots: list, slot: int) -> int | None:
    """Map f's index key at each of items, unless mapped already, to the
    predicate evaluations a scan has made on reaching it, evals before the
    first; the count after the last, or None if f fails or gives a value
    without a key at some element."""
    for element in items:
        slots[slot] = element
        evals += 1
        try:
            key = V.index_key(keyed(slots))
        except RuntimeRuleError:
            return None
        if key is None:
            return None
        evals_at.setdefault(key, evals)
    return evals


def _build_index(container: list, keyed: CompiledExp, slots: list, slot: int) -> tuple | None:
    """The index of `exists (T x in C) (f(x) == e)`: (f's key -> evaluations
    up to its first element, evaluations of a miss, evaluations when e
    fails), or None if f fails or gives no key somewhere."""
    evals_at: dict = {}
    evals = _index_keys(evals_at, 0, container, keyed, slots, slot)
    return None if evals is None else (evals_at, evals, 1)


def _build_nested_index(outer: list, each: CompiledExp, keyed: CompiledExp, slots: list,
                        outer_slot: int, slot: int) -> tuple | None:
    """The index of `exists (T a in A) (exists (U b in B(a)) (f(b) == e))`,
    shaped as _build_index's, over every b of every B(a) in scan order: the
    key of b at (p, q) maps to p + 1 + |B_0| + ... + |B_p-1| + q + 1.  The
    scan evaluates e first at the first non-empty B(a).  None if some B(a)
    fails or is not a list, if f fails or gives no key somewhere, or if
    every B(a) is empty, where e is never evaluated."""
    evals_at: dict = {}
    evals = probe_evals = 0
    for a in outer:
        slots[outer_slot] = a
        evals += 1
        try:
            items = each(slots)
        except RuntimeRuleError:
            return None
        if not isinstance(items, list):
            return None
        if items and not probe_evals:
            probe_evals = evals + 1
        evals = _index_keys(evals_at, evals, items, keyed, slots, slot)
        if evals is None:
            return None
    return (evals_at, evals, probe_evals) if probe_evals else None


# -- shared walk over the pack ---------------------------------------------------


class Shared(Record):
    """One statement that several rules open with, run once for all of them.

    rules are the rules' positions in the pack, in pack order, and stmts[k]
    is the statement of rule rules[k]; the statements are equal but for
    their spans.  then holds what runs after the statement (in a for or if,
    at each binding or when taken), in the order of each part's first rule:
    a Shared for statements some of the rules still share, a Rest for a
    rule's own statements."""

    __slots__ = ("rules", "stmts", "then")
    rules: tuple[int, ...]
    stmts: tuple[ast.Stmt, ...]
    then: tuple[Shared | Rest, ...]


class Rest(Record):
    """The statements of one rule that no other rule shares."""

    __slots__ = ("rule", "stmts")
    rule: int
    stmts: tuple[ast.Stmt, ...]


def plan_pack(rules: list[ast.Rule]) -> list[Shared]:
    """The prefix tree of the pack: one Shared for each set of two or more
    rules whose first statements are equal but for their spans."""
    return [step for step in _plan([(i, rule.body, 0) for i, rule in enumerate(rules)])
            if isinstance(step, Shared)]


def _plan(cursors: list[tuple[int, tuple[ast.Stmt, ...], int]]) -> list[Shared | Rest]:
    """The steps of rules that have shared every statement so far; a cursor
    (rule, stmts, i) says that rule runs stmts[i:] next.  A declaration
    can be shared, and so can a for or if that ends its body, since then
    nothing of the rule runs after its bindings."""
    groups: list[list] = []
    by_head: dict[tuple, list] = {}
    for cursor in cursors:
        _, stmts, i = cursor
        stmt = stmts[i] if i < len(stmts) else None
        if isinstance(stmt, ast.DeclStmt) or (
                isinstance(stmt, (ast.ForStmt, ast.IfStmt)) and i == len(stmts) - 1):
            key = (type(stmt), _shape(_head(stmt)))
            if key in by_head:
                by_head[key].append(cursor)
                continue
            by_head[key] = [cursor]
            groups.append(by_head[key])
        else:
            groups.append([cursor])
    steps: list[Shared | Rest] = []
    for group in groups:
        if len(group) == 1:
            rule, stmts, i = group[0]
            if i < len(stmts):
                steps.append(Rest(rule, stmts[i:]))
            continue
        heads = tuple(stmts[i] for _, stmts, i in group)
        after = [(rule, stmts, i + 1) if isinstance(head, ast.DeclStmt) else (rule, head.body, 0)
                 for (rule, stmts, i), head in zip(group, heads)]
        steps.append(Shared(tuple(rule for rule, _, _ in group), heads, tuple(_plan(after))))
    return steps


def _head(stmt: ast.Stmt) -> tuple:
    """What a shared step evaluates of a statement: a declaration, or a for
    or if without its body."""
    if isinstance(stmt, ast.ForStmt):
        return (stmt.decl_type, stmt.var, stmt.container)
    if isinstance(stmt, ast.IfStmt):
        return (stmt.cond,)
    return (stmt.decl_type, stmt.var, stmt.init)


def _shape(node: object) -> object:
    """node with every span left out: equal for nodes equal but for spans."""
    if isinstance(node, ast.Span):
        return None
    if isinstance(node, Record):
        return (type(node), *map(_shape, node._fields()))
    if isinstance(node, tuple):
        return tuple(map(_shape, node))
    return node


def _position_in(own: tuple, other: tuple, line: int, column: int) -> tuple[int, int]:
    """The position in other of the node at (line, column) in own, a head
    equal to other but for spans."""
    pairs = [(own, other)]
    while pairs:
        a, b = pairs.pop()
        if isinstance(a, ast.Span):
            if a.line == line and a.column == column:
                return b.line, b.column
        elif isinstance(a, Record):
            pairs.extend(zip(a._fields(), b._fields()))
        elif isinstance(a, tuple):
            pairs.extend(zip(a, b))
    return line, column


class _Member:
    """A rule in a shared walk: where its reports go and, once a rule error
    has stopped it, the error's (cause, line, column).  It holds no
    exception and no interpreter, so nothing it holds leads back to it."""

    __slots__ = ("rule_name", "sink", "error")

    def __init__(self, rule_name: str):
        self.rule_name = rule_name
        self.sink: list[BugReport] = []
        self.error: tuple[str, int, int] | None = None


def compile_pack(interpreters: list[Interpreter], rules: list[ast.Rule]) -> None:
    """Make each set of rules in plan_pack(rules) run its shared statements
    once.  interpreters[k] runs rules[k], with one run_rule call per rule,
    in pack order.

    The first rule of a set runs the shared walk: each shared statement is
    evaluated once, with the compiled closures of the first rule that
    shares it (so that rule's EvalStats count its calls), and at each
    binding every Rest below it runs with its own rule's closures and
    EvalStats.  The first rule's reports
    go straight to the sink; the others' are held and appended, numbered
    afresh, by their own run_rule call, so the sink gets what running the
    rules one by one gives.  A rule error in a rule's own statements stops
    that rule only; one in a shared statement stops every rule the step
    still runs, each at its own position of the statement.  Each stopped
    rule's run_rule raises its error after its reports, in its turn."""
    members = [_Member(rule.name) for rule in rules]
    for step in plan_pack(rules):
        compiled = {k: interpreters[k].compile_rule(rules[k]) for k in step.rules}
        root = _compile_step(step, members, interpreters)
        # the shared statements' slots come first in every rule, numbered alike
        nslots = max(nslots for _, nslots, _ in compiled.values())
        group = [members[k] for k in step.rules]
        for k, member in zip(step.rules, group):
            body = (_walk_body(root, member, group) if member is group[0]
                    else _replay_body(member))
            interpreters[k]._compiled[id(rules[k])] = (rules[k], (body, nslots, compiled[k][2]))


def _walk_body(root: Callable[[list], None], first: _Member,
               group: list[_Member]) -> CompiledStmt:
    """The first rule's body: the whole shared walk."""

    def walk(slots, sink):
        for member in group:
            member.sink, member.error = [], None
        first.sink = sink
        root(slots)
        if first.error is not None:
            raise RuntimeRuleError(first.rule_name, *first.error)

    return walk


def _replay_body(member: _Member) -> CompiledStmt:
    """A later rule's body: what the shared walk held for it."""

    def replay(slots, sink):
        for r in member.sink:
            sink.append(BugReport(r.rule_name, r.message, r.file_path, r.line, len(sink)))
        member.sink = []
        if member.error is not None:
            raise RuntimeRuleError(member.rule_name, *member.error)

    return replay


def _compile_step(step: Shared | Rest, members: list[_Member],
                  interpreters: list[Interpreter]) -> Callable[[list], None]:
    """slots -> None: run the step for the rules it holds that have not
    stopped, from the closures their interpreters compiled."""
    if isinstance(step, Rest):
        member = members[step.rule]
        codes = tuple(interpreters[step.rule]._code[id(stmt)] for stmt in step.stmts)
        if len(codes) == 1:
            (run,) = codes
        else:
            def run(slots, sink):
                for stmt in codes:
                    stmt(slots, sink)

        def rest(slots):
            if member.error is None:
                try:
                    run(slots, member.sink)
                except RuntimeRuleError as exc:
                    member.error = (exc.cause, exc.line, exc.column)

        return rest

    group = tuple(members[k] for k in step.rules)
    heads = tuple(_head(stmt) for stmt in step.stmts)
    then = tuple(_compile_step(s, members, interpreters) for s in step.then)
    first, stmt = interpreters[step.rules[0]], step.stmts[0]

    def fail(exc: RuntimeRuleError) -> None:
        for member, head in zip(group, heads):
            if member.error is None:
                member.error = (exc.cause, *_position_in(heads[0], head, exc.line, exc.column))

    if isinstance(stmt, ast.ForStmt):
        container, slot = first._heads[id(stmt)]

        def shared_for(slots):
            for member in group:
                if member.error is None:
                    break
            else:
                return
            try:
                items = _iteration_items(container(slots))
            except RuntimeRuleError as exc:
                fail(exc)
                return
            for element in items:
                slots[slot] = element
                for part in then:
                    part(slots)

        return shared_for

    if isinstance(stmt, ast.IfStmt):
        cond = first._heads[id(stmt)][0]
    else:  # a declaration: a condition that binds its slot and holds
        declare = first._code[id(stmt)]

        def cond(slots):
            declare(slots, None)
            return True

    def shared_if(slots):
        for member in group:
            if member.error is None:
                break
        else:
            return
        try:
            taken = cond(slots)
        except RuntimeRuleError as exc:
            fail(exc)
            return
        if taken:
            for part in then:
                part(slots)

    return shared_if
