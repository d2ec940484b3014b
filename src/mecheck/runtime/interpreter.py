"""Tree-walking interpreter for rules.

Scoping model: run_rule pushes one frame around the rule body.  A for
loop pushes one frame before evaluating its container, rebinds the loop
variable per element, clears the frame's bindings between iterations
(iteration-local declarations must not leak into the next pass), and
pops after the loop.  An if statement evaluates its condition in the
current environment and pushes a frame around the body.  A declaration
binds in the innermost frame.  exists pushes a frame for its bound
variable, returns true at the first element whose predicate holds, and
pops even on that early exit.  AND and OR do not evaluate their right
side when the left side decides.

A failed assert renders the message template and emits a BugReport; the
report's position comes from the first message argument that carries a
source location.  Any runtime failure (unbound name, a built-in type or
precondition error) aborts only the current rule via RuntimeRuleError.

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

from mecheck import builtins as builtins_mod
from mecheck.model.project import ProjectModel
from mecheck.rsl import ast
from mecheck.runtime import values as V
from mecheck.runtime.cache import QueryCache, canonical_key
from mecheck.runtime.env import (
    EXISTS_CLAUSE,
    FOR_LOOP,
    IF_BODY,
    RULE_BODY,
    EnvStack,
    Frame,
    UnboundVariable,
)


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
        # id(exists node) -> (node, plan); holding the node keeps its id unique
        self._plans: dict[int, tuple[ast.Exists, EqPlan | None]] = {}

    # -- entry point ----------------------------------------------------------

    def run_rule(self, rule: ast.Rule, sink: list[BugReport] | None = None) -> list[BugReport]:
        """Execute one rule; reports are appended to sink (shared sinks
        keep emission ordinals global across rules)."""
        if sink is None:
            sink = []
        self._rule_name = rule.name
        env = EnvStack()
        env.push(RULE_BODY)
        try:
            for stmt in rule.body:
                self.process_stmt(stmt, env, sink)
        finally:
            env.pop()
        return sink

    # -- statements -------------------------------------------------------------

    def process_stmt(self, stmt: ast.Stmt, env: EnvStack, sink: list[BugReport]) -> None:
        if isinstance(stmt, ast.ForStmt):
            self._process_for(stmt, env, sink)
        elif isinstance(stmt, ast.IfStmt):
            self._process_if(stmt, env, sink)
        elif isinstance(stmt, ast.AssertStmt):
            self._process_assert(stmt, env, sink)
        elif isinstance(stmt, ast.DeclStmt):
            value = self.evaluate(stmt.init, env)
            env.top().bind(stmt.var, stmt.decl_type, value)
        else:
            raise RuntimeRuleError(
                self._rule_name,
                f"unknown statement node {type(stmt).__name__}",
                stmt.span.line,
                stmt.span.column,
            )

    def _process_for(self, stmt: ast.ForStmt, env: EnvStack, sink: list[BugReport]) -> None:
        frame = env.push(FOR_LOOP)
        try:
            container = self.evaluate(stmt.container, env)
            for element in self._iteration_items(container):
                frame.bind(stmt.var, stmt.decl_type, element)
                for child in stmt.body:
                    self.process_stmt(child, env, sink)
                frame.clear()
        finally:
            env.pop()

    def _process_if(self, stmt: ast.IfStmt, env: EnvStack, sink: list[BugReport]) -> None:
        cond = self._truth(self.evaluate(stmt.cond, env), stmt.cond)
        if not cond:
            return
        env.push(IF_BODY)
        try:
            for child in stmt.body:
                self.process_stmt(child, env, sink)
        finally:
            env.pop()

    def _process_assert(self, stmt: ast.AssertStmt, env: EnvStack, sink: list[BugReport]) -> None:
        cond = self._truth(self.evaluate(stmt.cond, env), stmt.cond)
        if cond:
            return
        arg_values = [self.evaluate(arg, env) for arg in stmt.message.args]
        message = self._render_message(stmt.message.template, arg_values)
        file_path, line = "", 0
        for value in arg_values:
            loc = V.location_of(value)
            if loc is not None:
                file_path, line = loc
                break
        sink.append(
            BugReport(
                rule_name=self._rule_name,
                message=message,
                file_path=file_path,
                line=line,
                ordinal=len(sink),
            )
        )

    @staticmethod
    def _render_message(template: str, arg_values: list) -> str:
        parts = template.split("%s")
        out = [parts[0]]
        for value, tail in zip(arg_values, parts[1:]):
            out.append(V.display(value))
            out.append(tail)
        return "".join(out)

    @staticmethod
    def _iteration_items(container: object) -> list:
        """for/exists containers: a list iterates as is, MISSING is
        empty, any single value is a one-element list."""
        if container is V.MISSING:
            return []
        if isinstance(container, list):
            return container
        return [container]

    # -- expressions -----------------------------------------------------------------

    def evaluate(self, exp: ast.Exp, env: EnvStack):
        if isinstance(exp, ast.Identifier):
            try:
                _, value = env.lookup(exp.name)
            except UnboundVariable:
                raise RuntimeRuleError(
                    self._rule_name,
                    f"variable '{exp.name}' is not bound",
                    exp.span.line,
                    exp.span.column,
                ) from None
            return value
        if isinstance(exp, ast.Literal):
            return exp.value
        if isinstance(exp, ast.FunctionCall):
            args = [self.evaluate(arg, env) for arg in exp.args]
            return self._call_builtin(exp, args)
        if isinstance(exp, ast.Paren):
            return self.evaluate(exp.inner, env)
        if isinstance(exp, ast.Eq):
            lhs = self.evaluate(exp.lhs, env)
            rhs = self.evaluate(exp.rhs, env)
            return V.value_eq(lhs, rhs)
        if isinstance(exp, ast.Exists):
            return self._eval_exists(exp, env)
        if isinstance(exp, ast.And):
            left = self._truth(self.evaluate(exp.left, env), exp.left)
            if not left:
                return False
            return self._truth(self.evaluate(exp.right, env), exp.right)
        if isinstance(exp, ast.Or):
            left = self._truth(self.evaluate(exp.left, env), exp.left)
            if left:
                return True
            return self._truth(self.evaluate(exp.right, env), exp.right)
        if isinstance(exp, ast.Not):
            return not self._truth(self.evaluate(exp.operand, env), exp.operand)
        raise RuntimeRuleError(
            self._rule_name,
            f"unknown expression node {type(exp).__name__}",
            exp.span.line,
            exp.span.column,
        )

    def _eval_exists(self, exp: ast.Exists, env: EnvStack) -> bool:
        frame = env.push(EXISTS_CLAUSE)
        try:
            container = self.evaluate(exp.container, env)
            if self.cache is not None and isinstance(container, list) and container:
                plan = self._plan(exp)
                if plan is not None:
                    found = self._index_lookup(exp, plan, container, env, frame)
                    if found is not None:
                        return found
            for element in self._iteration_items(container):
                frame.bind(exp.var, exp.decl_type, element)
                self.stats.exists_predicate_evals += 1
                if self._truth(self.evaluate(exp.predicate, env), exp.predicate):
                    return True
                frame.clear()
            return False
        finally:
            env.pop()

    def _plan(self, exp: ast.Exists) -> EqPlan | None:
        entry = self._plans.get(id(exp))
        if entry is None:
            entry = self._plans[id(exp)] = (exp, plan_exists(exp))
        return entry[1]

    def _index_lookup(
        self, exp: ast.Exists, plan: EqPlan, container: list, env: EnvStack, frame: Frame
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
        if not plan.probe_first and index.built == 0 and not index.complete():
            self._grow_index(index, plan, env, frame)
        pos = None
        # unless f(x0) failed, which ends the scan before e is evaluated
        if plan.probe_first or index.built > 0 or index.error is None:
            try:
                probe = self.evaluate(plan.probe, env)
            except RuntimeRuleError:
                stats.exists_predicate_evals += 1
                raise
            key = V.index_key(probe)
            if key is None:
                return None
            pos = index.first.get(key)
            while pos is None and not index.complete():
                self._grow_index(index, plan, env, frame)
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

    def _grow_index(self, index: ExistsIndex, plan: EqPlan, env: EnvStack, frame: Frame) -> None:
        """Evaluate f at the next unindexed position."""
        pos = index.built
        frame.bind(index.node.var, index.node.decl_type, index.container[pos])
        try:
            value = self.evaluate(plan.keyed, env)
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

    def _truth(self, value: object, exp: ast.Exp) -> bool:
        try:
            return V.is_truthy(value)
        except V.ValueTypeError as exc:
            raise RuntimeRuleError(
                self._rule_name, str(exc), exp.span.line, exp.span.column
            ) from None

    def _call_builtin(self, exp: ast.FunctionCall, args: list):
        self.stats.builtin_calls += 1
        try:
            if self.cache is not None and self.registry.is_cacheable(exp.name):
                key = canonical_key(exp.name, args)
                return self.cache.get_or_compute(
                    key, lambda: self.registry.call(exp.name, args, self.model)
                )
            return self.registry.call(exp.name, args, self.model)
        except (
            builtins_mod.UnknownBuiltinError,
            builtins_mod.BuiltinArityError,
            builtins_mod.BuiltinTypeError,
            builtins_mod.PreconditionError,
        ) as exc:
            raise RuntimeRuleError(
                self._rule_name, str(exc), exp.span.line, exp.span.column
            ) from None
