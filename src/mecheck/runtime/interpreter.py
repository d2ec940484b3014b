"""Rule interpreter: each rule is compiled to Python closures, then run.

run_rule compiles a rule's body once per Interpreter into nested
closures, one per statement and one per expression node.  Literal
values, built-in names, argument counts, source spans and whether a
call goes through the query cache are settled at compile time, so
running a rule does no dispatch on node types.  Statements are called
as stmt(env, sink), expressions as exp(env); a compiled rule runs
against a fresh EnvStack each time.

Scoping model: a frame is a dict from variable name to value; the type a
rule declares for a variable is not kept or checked at run time.
run_rule pushes one frame around the rule body.  A for loop pushes one
frame before evaluating its container, rebinds the loop variable per
element, clears the frame's bindings between iterations (iteration-local
declarations must not leak into the next pass), and pops after the loop.
An if statement evaluates its condition in the current environment and
pushes a frame around the body.  A declaration binds in the innermost
frame.  exists pushes a frame for its bound variable, returns true at the
first element whose predicate holds, and pops even on that early exit.
AND and OR do not evaluate their right side when the left side decides.

A failed assert renders the message template and emits a BugReport; the
report's position comes from the first message argument that carries a
source location.  Any runtime failure (unbound name, a built-in type or
precondition error) aborts only the current rule via RuntimeRuleError.

Every built-in call goes through Registry.call; a cached one goes
through canonical_key and QueryCache.get_or_compute first.  All three
are looked up when the rule is compiled, so wrappers installed on them
before a rule runs see every call.

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

import dataclasses
from dataclasses import dataclass
from typing import Callable

from mecheck import builtins as builtins_mod
from mecheck.model.project import ProjectModel
from mecheck.rsl import ast
from mecheck.runtime import values as V
from mecheck.runtime.cache import QueryCache, canonical_key
from mecheck.runtime.env import EnvStack, UnboundVariable

# A compiled expression: env -> value.  A compiled statement: (env, sink) -> None.
CompiledExp = Callable[[EnvStack], object]
CompiledStmt = Callable[[EnvStack, list], None]

# Nodes whose value is always a Python bool, so a condition needs no check.
_BOOL_NODES = (ast.Eq, ast.Exists, ast.And, ast.Or, ast.Not)


@dataclass(frozen=True)
class BugReport:
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


@dataclass
class EvalStats:
    builtin_calls: int = 0
    exists_predicate_evals: int = 0
    exists_index_lookups: int = 0


def _walk(exp: ast.Exp):
    """exp and every expression below it."""
    yield exp
    for f in dataclasses.fields(exp):
        child = getattr(exp, f.name)
        for c in child if isinstance(child, tuple) else (child,):
            if isinstance(c, ast.Exp):
                yield from _walk(c)


@dataclass(frozen=True)
class EqPlan:
    """How an index answers `exists (T x in C) (keyed == probe)`."""

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
        # id(rule) -> (rule, compiled body); holding the rule keeps its id unique
        self._compiled: dict[int, tuple[ast.Rule, CompiledStmt]] = {}

    # -- entry point ----------------------------------------------------------

    def run_rule(self, rule: ast.Rule, sink: list[BugReport] | None = None) -> list[BugReport]:
        """Execute one rule; reports are appended to sink (shared sinks
        keep emission ordinals global across rules)."""
        if sink is None:
            sink = []
        self._rule_name = rule.name
        entry = self._compiled.get(id(rule))
        if entry is None:
            entry = self._compiled[id(rule)] = (rule, self._compile_block(rule.body))
        body = entry[1]
        env = EnvStack()
        env.push()
        try:
            body(env, sink)
        finally:
            env.pop()
        return sink

    # -- statements -------------------------------------------------------------

    def _compile_block(self, stmts: tuple[ast.Stmt, ...]) -> CompiledStmt:
        compiled = tuple(self._compile_stmt(s) for s in stmts)
        if len(compiled) == 1:
            return compiled[0]

        def block(env, sink):
            for stmt in compiled:
                stmt(env, sink)

        return block

    def _compile_stmt(self, stmt: ast.Stmt) -> CompiledStmt:
        if isinstance(stmt, ast.ForStmt):
            return self._compile_for(stmt)
        if isinstance(stmt, ast.IfStmt):
            return self._compile_if(stmt)
        if isinstance(stmt, ast.AssertStmt):
            return self._compile_assert(stmt)
        if isinstance(stmt, ast.DeclStmt):
            init = self._compile_exp(stmt.init)
            var = stmt.var

            def declare(env, sink):
                env.top()[var] = init(env)

            return declare
        error = self._error(
            f"unknown statement node {type(stmt).__name__}", stmt.span
        )

        def unknown(env, sink):
            raise error()

        return unknown

    def _compile_for(self, stmt: ast.ForStmt) -> CompiledStmt:
        container = self._compile_exp(stmt.container)
        body = self._compile_block(stmt.body)
        var = stmt.var

        def run_for(env, sink):
            frame = env.push()
            try:
                for element in _iteration_items(container(env)):
                    frame[var] = element
                    body(env, sink)
                    frame.clear()
            finally:
                env.pop()

        return run_for

    def _compile_if(self, stmt: ast.IfStmt) -> CompiledStmt:
        cond = self._compile_cond(stmt.cond)
        body = self._compile_block(stmt.body)

        def run_if(env, sink):
            if not cond(env):
                return
            env.push()
            try:
                body(env, sink)
            finally:
                env.pop()

        return run_if

    def _compile_assert(self, stmt: ast.AssertStmt) -> CompiledStmt:
        cond = self._compile_cond(stmt.cond)
        args = tuple(self._compile_exp(arg) for arg in stmt.message.args)
        template = stmt.message.template
        rule_name = self._rule_name

        def run_assert(env, sink):
            if cond(env):
                return
            arg_values = [arg(env) for arg in args]
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

    def _compile_exp(self, exp: ast.Exp) -> CompiledExp:
        if isinstance(exp, ast.Identifier):
            return self._compile_identifier(exp)
        if isinstance(exp, ast.Literal):
            value = exp.value
            return lambda env: value
        if isinstance(exp, ast.FunctionCall):
            return self._compile_call(exp)
        if isinstance(exp, ast.Paren):
            return self._compile_exp(exp.inner)
        if isinstance(exp, ast.Eq):
            lhs, rhs = self._compile_exp(exp.lhs), self._compile_exp(exp.rhs)
            value_eq = V.value_eq
            return lambda env: value_eq(lhs(env), rhs(env))
        if isinstance(exp, ast.Exists):
            return self._compile_exists(exp)
        if isinstance(exp, ast.And):
            left, right = self._compile_cond(exp.left), self._compile_cond(exp.right)
            return lambda env: left(env) and right(env)
        if isinstance(exp, ast.Or):
            left, right = self._compile_cond(exp.left), self._compile_cond(exp.right)
            return lambda env: left(env) or right(env)
        if isinstance(exp, ast.Not):
            operand = self._compile_cond(exp.operand)
            return lambda env: not operand(env)
        error = self._error(f"unknown expression node {type(exp).__name__}", exp.span)

        def unknown(env):
            raise error()

        return unknown

    def _compile_cond(self, exp: ast.Exp) -> CompiledExp:
        """exp as a condition: its value must be a bool or MISSING
        (false); anything else fails the rule at exp's position."""
        value_of = self._compile_exp(exp)
        inner = exp
        while isinstance(inner, ast.Paren):
            inner = inner.inner
        if isinstance(inner, _BOOL_NODES):
            return value_of
        rule_name, span, is_truthy = self._rule_name, exp.span, V.is_truthy

        def cond(env):
            value = value_of(env)
            try:
                return is_truthy(value)
            except V.ValueTypeError as exc:
                raise RuntimeRuleError(
                    rule_name, str(exc), span.line, span.column
                ) from None

        return cond

    def _compile_identifier(self, exp: ast.Identifier) -> CompiledExp:
        name = exp.name
        error = self._error(f"variable '{name}' is not bound", exp.span)

        def lookup(env):
            try:
                return env.lookup(name)
            except UnboundVariable:
                raise error() from None

        return lookup

    def _compile_call(self, exp: ast.FunctionCall) -> CompiledExp:
        name = exp.name
        args = tuple(self._compile_exp(arg) for arg in exp.args)
        stats, model, call = self.stats, self.model, self.registry.call
        rule_name, line, column = self._rule_name, exp.span.line, exp.span.column
        errors = builtins_mod.CALL_ERRORS

        spec = self.registry.builtins.get(name)
        if self.cache is not None and spec is not None and spec.cached:
            key_of, get = canonical_key, self.cache.get_or_compute

            def cached_call(env):
                values = [arg(env) for arg in args]
                stats.builtin_calls += 1
                try:
                    return get(key_of(name, values), call, name, values, model)
                except errors as exc:
                    raise RuntimeRuleError(rule_name, str(exc), line, column) from None

            return cached_call

        def direct_call(env):
            values = [arg(env) for arg in args]
            stats.builtin_calls += 1
            try:
                return call(name, values, model)
            except errors as exc:
                raise RuntimeRuleError(rule_name, str(exc), line, column) from None

        return direct_call

    def _compile_exists(self, exp: ast.Exists) -> CompiledExp:
        container = self._compile_exp(exp.container)
        predicate = self._compile_cond(exp.predicate)
        var = exp.var
        stats = self.stats
        plan = plan_exists(exp) if self.cache is not None else None
        if plan is not None:
            keyed = self._compile_exp(plan.keyed)
            probe = self._compile_exp(plan.probe)
            probe_first = plan.probe_first
            index_lookup = self._index_lookup

        def exists(env):
            frame = env.push()
            try:
                items = container(env)
                if plan is not None and isinstance(items, list) and items:
                    found = index_lookup(
                        exp, items, keyed, probe, probe_first, env, frame
                    )
                    if found is not None:
                        return found
                for element in _iteration_items(items):
                    frame[var] = element
                    stats.exists_predicate_evals += 1
                    if predicate(env):
                        return True
                    frame.clear()
                return False
            finally:
                env.pop()

        return exists

    def _error(self, cause: str, span: ast.Span) -> Callable[[], RuntimeRuleError]:
        """A factory for the rule error raised at span, bound now so the
        compiled code need not know the rule."""
        rule_name = self._rule_name
        return lambda: RuntimeRuleError(rule_name, cause, span.line, span.column)

    # -- indexed exists ------------------------------------------------------------

    def _index_lookup(
        self,
        exp: ast.Exists,
        container: list,
        keyed: CompiledExp,
        probe: CompiledExp,
        probe_first: bool,
        env: EnvStack,
        frame: dict[str, object],
    ) -> bool | None:
        """Answer a non-empty exists from its index, counting and failing
        as the scan would; None means the scan must answer."""
        indexes = self.cache.exists_indexes
        slot = (id(exp), id(container))
        index = indexes.get(slot)
        if index is None:
            index = indexes[slot] = ExistsIndex(exp, container)
        stats = self.stats
        # the scan's first iteration evaluates f(x0) before a right-hand e
        if not probe_first and index.built == 0 and not index.complete():
            self._grow_index(index, keyed, env, frame)
        pos = None
        # unless f(x0) failed, which ends the scan before e is evaluated
        if probe_first or index.built > 0 or index.error is None:
            try:
                value = probe(env)
            except RuntimeRuleError:
                stats.exists_predicate_evals += 1
                raise
            key = V.index_key(value)
            if key is None:
                return None
            pos = index.first.get(key)
            while pos is None and not index.complete():
                self._grow_index(index, keyed, env, frame)
                pos = index.first.get(key)
            if pos is None and index.unkeyed:
                return None
        stats.exists_index_lookups += 1
        if pos is not None:
            stats.exists_predicate_evals += pos + 1
            return True
        if index.error is not None:
            stats.exists_predicate_evals += index.built + 1
            raise RuntimeRuleError(self._rule_name, *index.error)
        stats.exists_predicate_evals += len(container)
        return False

    @staticmethod
    def _grow_index(
        index: ExistsIndex, keyed: CompiledExp, env: EnvStack, frame: dict[str, object]
    ) -> None:
        """Evaluate f at the next unindexed position."""
        pos = index.built
        frame[index.node.var] = index.container[pos]
        try:
            value = keyed(env)
        except RuntimeRuleError as exc:
            index.error = (exc.cause, exc.line, exc.column)
            return
        finally:
            frame.clear()
        key = V.index_key(value)
        if key is None:
            index.unkeyed = True
            return
        index.first.setdefault(key, pos)
        index.built = pos + 1
