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
built-in's checked entry; a cached one goes through canonical_key and
QueryCache.get_or_compute first.  All three are looked up when the rule
is compiled, so wrappers installed on them before a rule runs see every
call.

Indexed exists: with a QueryCache, `exists (T x in C) (f(x) == e)` is
answered from a hash index of f over C (a hash semi-join) when the
predicate, parentheses removed, is an == of which exactly one side
mentions x, that side is built only from built-in calls, literals and x,
and the other side e neither mentions x nor contains an exists.  The
index is kept in the cache per (exists node, container object), is
grown only as far as lookups need, and maps each f-value to its first
position; e is evaluated once per lookup and probed.  Results, rule
errors and exists_predicate_evals are exactly those of the left-to-right
scan: e is evaluated where the scan's first iteration would evaluate it
(never for an empty container), a failure of f at position p is
re-raised unless a match lies before p, and the count is the match
position + 1, p + 1, or len(C) on a miss.  Values without an exact hash
key (numbers, lists; see values.index_key) fall back to the scan, and
without a cache every exists scans.
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
    """How an index answers `exists (T x in C) (keyed == probe)`."""

    __slots__ = ("keyed", "probe", "probe_first")
    keyed: ast.Exp  # f(x): the side that mentions x
    probe: ast.Exp  # e: the side that does not
    probe_first: bool  # e is the left side, so a scan evaluates it before f(x)


def plan_exists(exp: ast.Exists) -> EqPlan | None:
    """The index plan for an exists node, or None when it must scan."""
    pred = exp.predicate
    while isinstance(pred, ast.Paren):
        pred = pred.inner
    if not isinstance(pred, ast.Eq):
        return None

    def mentions_var(side: ast.Exp) -> bool:
        return any(
            isinstance(n, ast.Identifier) and n.name == exp.var for n in _walk(side)
        )

    lhs_x, rhs_x = mentions_var(pred.lhs), mentions_var(pred.rhs)
    if lhs_x == rhs_x:
        return None
    keyed, probe = (pred.lhs, pred.rhs) if lhs_x else (pred.rhs, pred.lhs)
    if not all(
        isinstance(n, (ast.FunctionCall, ast.Literal))
        or (isinstance(n, ast.Identifier) and n.name == exp.var)
        for n in _walk(keyed)
    ):
        return None
    # a nested exists in e would count predicate evals once per scanned element
    if any(isinstance(n, ast.Exists) for n in _walk(probe)):
        return None
    return EqPlan(keyed, probe, probe_first=rhs_x)


class ExistsIndex:
    """f(x) over one container for one exists node, built in container
    order only as far as lookups have needed.  It holds the node and the
    container, so the ids that key it in the cache stay unique."""

    __slots__ = ("node", "container", "first", "built", "error", "unkeyed")

    def __init__(self, node: ast.Exists, container: list):
        self.node = node
        self.container = container
        self.first: dict = {}  # index key of f(C[i]) -> smallest such i
        self.built = 0  # f evaluated without failure at positions [0, built)
        # (cause, line, column) of f's failure at position `built`
        self.error: tuple[str, int, int] | None = None
        self.unkeyed = False  # f(C[built]) has no index key

    def complete(self) -> bool:
        return (
            self.error is not None
            or self.unkeyed
            or self.built == len(self.container)
        )


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
            return self._compile_for(stmt, scopes)
        if isinstance(stmt, ast.IfStmt):
            return self._compile_if(stmt, scopes)
        if isinstance(stmt, ast.AssertStmt):
            return self._compile_assert(stmt, scopes)
        if isinstance(stmt, ast.DeclStmt):
            init = self._compile_exp(stmt.init, scopes)
            slot = self._bind(scopes, stmt.var)

            def declare(slots, sink):
                slots[slot] = init(slots)

            return declare
        raise TypeError(f"unknown statement node: {stmt!r}")

    def _compile_for(self, stmt: ast.ForStmt, scopes: Scopes) -> CompiledStmt:
        container = self._compile_exp(stmt.container, scopes)
        inner = scopes + [{}]
        slot = self._bind(inner, stmt.var)
        body = self._compile_block(stmt.body, inner)

        def run_for(slots, sink):
            for element in _iteration_items(container(slots)):
                slots[slot] = element
                body(slots, sink)

        return run_for

    def _compile_if(self, stmt: ast.IfStmt, scopes: Scopes) -> CompiledStmt:
        cond = self._compile_cond(stmt.cond, scopes)
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
            return self._compile_exists(exp, scopes)
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
        inner = exp
        while isinstance(inner, ast.Paren):
            inner = inner.inner
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

    def _compile_call(self, exp: ast.FunctionCall, scopes: Scopes) -> CompiledExp:
        """The call site: one closure that builds the argument list, counts
        the call and dispatches it, through the query cache (get) for a
        cached built-in.  When the arguments are only literals, or in the
        common shapes of literal and bound-variable arguments, the closure
        builds the list itself: hasAttr(bean, "class") runs as
        [slots[a], "class"], with no call per argument.  Other shapes build
        it with _compile_args."""
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
        if self.cache is not None and spec is not None and spec.cached:
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

    def _compile_exists(self, exp: ast.Exists, scopes: Scopes) -> CompiledExp:
        container = self._compile_exp(exp.container, scopes)
        inner = scopes + [{}]
        slot = self._bind(inner, exp.var)
        predicate = self._compile_cond(exp.predicate, inner)
        stats = self.stats
        plan = plan_exists(exp) if self.cache is not None else None
        if plan is not None:
            # the predicate's parts again: what they hold is already diagnosed
            found = len(self._diagnostics)
            keyed = self._compile_exp(plan.keyed, inner)
            probe = self._compile_exp(plan.probe, inner)
            del self._diagnostics[found:]
            probe_first = plan.probe_first
            indexes, rule_name = self.cache.exists_indexes, self._rule_name

        def exists(slots):
            items = container(slots)
            if plan is not None and isinstance(items, list) and items:
                found = _index_lookup(indexes, stats, rule_name, exp, items, keyed, probe,
                                      probe_first, slots, slot)
                if found is not None:
                    return found
            for element in _iteration_items(items):
                slots[slot] = element
                stats.exists_predicate_evals += 1
                if predicate(slots):
                    return True
            return False

        return exists

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
    while isinstance(exp, ast.Paren):
        exp = exp.inner
    if isinstance(exp, ast.Literal):
        return ("value", exp.value)
    if isinstance(exp, ast.Identifier):
        slot = _slot_of(exp.name, scopes)
        if slot is not None:
            return ("slot", slot)
    return None


# -- indexed exists ------------------------------------------------------------


def _index_lookup(
    indexes: dict[tuple[int, int], ExistsIndex],
    stats: EvalStats,
    rule_name: str,
    exp: ast.Exists,
    container: list,
    keyed: CompiledExp,
    probe: CompiledExp,
    probe_first: bool,
    slots: list,
    slot: int,
) -> bool | None:
    """Answer a non-empty exists from its index, counting and failing
    as the scan would; None means the scan must answer.  slot is the
    exists variable's.  It is given the cache's indexes, the stats and the
    rule name rather than the interpreter, so that a compiled rule holds no
    reference back to its interpreter and both are freed by reference
    counting."""
    index_id = (id(exp), id(container))
    index = indexes.get(index_id)
    if index is None:
        index = indexes[index_id] = ExistsIndex(exp, container)
    # the scan's first iteration evaluates f(x0) before a right-hand e
    if not probe_first and index.built == 0 and not index.complete():
        _grow_index(index, keyed, slots, slot)
    pos = None
    # unless f(x0) failed, which ends the scan before e is evaluated
    if probe_first or index.built > 0 or index.error is None:
        try:
            value = probe(slots)
        except RuntimeRuleError:
            stats.exists_predicate_evals += 1
            raise
        key = V.index_key(value)
        if key is None:
            return None
        pos = index.first.get(key)
        while pos is None and not index.complete():
            _grow_index(index, keyed, slots, slot)
            pos = index.first.get(key)
        if pos is None and index.unkeyed:
            return None
    stats.exists_index_lookups += 1
    if pos is not None:
        stats.exists_predicate_evals += pos + 1
        return True
    if index.error is not None:
        stats.exists_predicate_evals += index.built + 1
        raise RuntimeRuleError(rule_name, *index.error)
    stats.exists_predicate_evals += len(container)
    return False


def _grow_index(index: ExistsIndex, keyed: CompiledExp, slots: list, slot: int) -> None:
    """Evaluate f at the next unindexed position."""
    pos = index.built
    slots[slot] = index.container[pos]
    try:
        value = keyed(slots)
    except RuntimeRuleError as exc:
        index.error = (exc.cause, exc.line, exc.column)
        return
    key = V.index_key(value)
    if key is None:
        index.unkeyed = True
        return
    index.first.setdefault(key, pos)
    index.built = pos + 1
