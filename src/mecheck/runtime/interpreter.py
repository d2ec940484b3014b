"""Rule interpreter: each rule is compiled to generated Python, then run.

Every rule runs in a walk: emit_pack writes the pack as Python source,
one walk for each set of rules that open with the same statements and one
for each other rule (plan_pack, emit_walk); compile_pack compiles each
walk once, with compile and exec, and run_rule calls it on the sink.
What each node means (built-in, arity, position, caching, truth check)
is settled while the source is written, so the code does no dispatch on
node types and no frame lies between a rule and a built-in's body.

Each binding site (for variable, exists variable, declaration) and each
intermediate value is a Python local.  Every built-in call is a
statement that counts the call in the rule's EvalStats.  A cached
built-in or an exists container goes through canonical_key and
QueryCache.get_or_compute, which calls Registry.call on a miss.  Any
other call of a known built-in with a count in its arity calls the body
itself where its guard holds, and Registry.call, which checks the
arguments, where it does not: the body runs on exactly the calls the
checked entry would run it on.  The guard is the declaration's checks
(each kind, then no MISSING where the call would return early) less
those that an argument's kind, known when the rule compiles
(_Emitter.known), settles; one settled as failing leaves the checked
call alone.  These three and each body are looked up when the code is
compiled, so wrappers installed on them before a rule runs see every
call that reaches them.  A condition must be a bool or MISSING, and a
for or exists container a list or one value, each checked at run time
unless known.  AND and OR do not evaluate their right side when the left
side decides; an exists is one loop that counts each predicate
evaluation and stops at the first true one, run where a lookup in its
index cannot answer (see _index_lookup).  A call, a truth check and a
read of an unbound variable are each a line that raises a plain error,
and each generated function has one try, whose handler raises
RuntimeRuleError at the (rule, line, column) that its unit's line table
records for that line; for a line that calls a body, the table also
names the built-in, which the handler puts into the body's
BuiltinTypeError or PreconditionError as the checked entry would.  Rule
text never enters the source: literals, message templates, line tables,
built-in and rule names are constants the code reads as the globals c0,
c1, ..., as it reads the registry, its bound call, the model, the cache,
the EvalStats and the helpers below.  The source is split into units,
each compiled on its own as "<rule NAME>" after the rules whose code it
holds: CPython's compiler holds about 5 KB per line of a compile, and a
function nests at most 20 blocks and 100 indentation levels deep, while
a rule nests up to 64 levels.  A unit takes the locals it reads as
arguments and the units it calls as defaults; no namespace keeps them.

Scoping model: variables are resolved as the source is written, and this
one walk validates the rule: emit_walk records a Diagnostic for each
read that resolves to no binding, each call of an unknown built-in and
each call with a wrong argument count, and load_rulepack reports the
first.  The rule body, each for and if body and each exists predicate is
a scope; a declaration is visible to the statements after it in its
scope, a for or exists variable to its body or predicate, and an inner
binding shadows an outer one.  A read that resolves to no binding
becomes a raise of "variable 'x' is not bound" at its position, and a
diagnosed call still calls Registry.call, which fails it.  The type a
rule declares for a variable is not kept or checked.  A failed assert
renders the message template and emits a BugReport at the first message
argument that carries a source location.  Any runtime failure aborts
only the current rule via RuntimeRuleError.

Rules that share a walk run their shared statements once, and each rule
gets what running it alone gives: its reports, in the order it makes
them, its rule error and its diagnostics.  A walk appends its rules'
reports to one sink as they are made, so there its rules' reports
interleave.
"""

from __future__ import annotations

import functools
from typing import Callable

from mecheck import builtins as builtins_mod
from mecheck.model.project import ProjectModel
from mecheck.record import Record
from mecheck.rsl import ast
from mecheck.runtime import values as V
from mecheck.runtime.cache import QueryCache, canonical_key

# A body or condition is written as a unit of its own once the function
# being written has this many Python blocks or indentation levels open, or
# lines; a statement opens at most about five more blocks before a check.
# A line that calls a body directly counts as two: counted as one, the
# seed-7 pack compiles in fewer, larger units, and compile_pack's peak
# rises by a third.
_MAX_BLOCKS, _MAX_INDENT, _MAX_LINES = 10, 30, 40


# What emitting a rule finds wrong with it; rulepack.py reports these.
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
    __slots__ = ("rule_name", "message", "file_path", "line")
    rule_name: str
    message: str
    file_path: str
    line: int


class RuntimeRuleError(Exception):
    def __init__(self, rule_name: str, cause: str, line: int, column: int):
        super().__init__(f"rule {rule_name} failed at line {line}, column {column}: {cause}")
        self.rule_name, self.cause, self.line, self.column = rule_name, cause, line, column


class EvalStats:
    """Counters one Interpreter adds to as its rules run."""

    __slots__ = ("builtin_calls", "exists_predicate_evals", "exists_index_lookups")

    def __init__(self):
        self.builtin_calls = self.exists_predicate_evals = self.exists_index_lookups = 0


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
    return all(isinstance(n, (ast.FunctionCall, ast.Literal))
               or (isinstance(n, ast.Identifier) and n.name == var) for n in _walk(exp))


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


@functools.cache
def _holds(known: type | tuple[type, ...], types: type | tuple[type, ...]) -> bool | None:
    """Whether isinstance(v, types) holds for an instance v of known: True
    if for every such v, False if for none, None if it depends on v."""
    known, types = (t if isinstance(t, tuple) else (t,) for t in (known, types))
    if all(issubclass(k, types) for k in known):
        return True
    related = any(issubclass(k, t) or issubclass(t, k) for k in known for t in types)
    return None if related else False


# -- what generated code calls ----------------------------------------------------


def _unbound(cause: str) -> None:
    raise V.ValueTypeError(cause)


def _placed(exc: Exception, table: dict[int, tuple[str, int, int, str | None]]
            ) -> RuntimeRuleError:
    """exc as a rule error: a plain error (a call's, is_truthy's or
    _unbound's) at the (rule, line, column) that its unit's line table
    records for the generated line it came through.  A body called there
    directly raises a BuiltinTypeError or PreconditionError without its
    built-in's name, which the table records too."""
    if isinstance(exc, RuntimeRuleError):
        return exc
    rule_name, line, column, builtin = table[exc.__traceback__.tb_lineno]
    if builtin is not None and isinstance(
            exc, (builtins_mod.BuiltinTypeError, builtins_mod.PreconditionError)):
        exc.name = builtin
    return RuntimeRuleError(rule_name, str(exc), line, column)


def _report(sink: list, rule_name: str, template: str, arg_values: list) -> None:
    """Append the report of a failed assert to sink: the template with
    each %s rendered from its argument, at the first argument's location."""
    parts = template.split("%s")
    message = parts[0] + "".join(V.display(v) + tail for v, tail in zip(arg_values, parts[1:]))
    file_path, line = "", 0
    for value in arg_values:
        loc = V.location_of(value)
        if loc is not None:
            file_path, line = loc
            break
    sink.append(BugReport(rule_name, message, file_path, line))


def _fail(exc: Exception, table: dict, members: tuple, heads: tuple | None = None) -> None:
    """A step failed: stop each rule of members that still runs, at exc's
    position (see _placed), or in a shared statement at the rule's own
    position of it (heads[k] is member k's)."""
    exc = _placed(exc, table)
    for k, member in enumerate(members):
        if member.error is None:
            member.error = (exc.cause, *(_position_in(heads[0], heads[k], exc.line, exc.column)
                                         if heads else (exc.line, exc.column)))


# -- generating a rule's function ---------------------------------------------------


class Generated(Record):
    """The Python source of a rule's function, run, as units: (name,
    filename, source) of functions compiled one by one, run last; the
    constants their code reads as c0, c1, ...; and the diagnostics found
    in the rule."""

    __slots__ = ("units", "constants", "diagnostics")
    units: tuple[tuple[str, str, str], ...]
    constants: tuple
    diagnostics: list[Diagnostic]


class _Func:
    """A function being written: its lines as (indentation, text, the
    (rule, line, column) of a line that can raise a plain error or None),
    the nested functions it defines first, the indentation levels and
    blocks open, its size in lines, the names it binds and reads, its
    units, and its unit's line table."""

    __slots__ = ("lines", "defs", "indent", "blocks", "size", "binds", "reads", "units", "table")

    def __init__(self, table: dict[int, tuple[str, int, int, str | None]],
                 params: tuple[str, ...] = ()):
        self.lines: list[tuple[int, str, tuple | None]] = []
        self.defs: list[tuple[str, str, _Func]] = []
        self.indent = self.blocks = self.size = 0
        self.binds, self.reads, self.units = set(params), set(), set()
        self.table = table

    def render(self, header: str, depth: int, out: list[str], table_name: str) -> None:
        """Append the function to out, its body in one try whose handler
        places a plain error by the line table, the constant table_name,
        and record there the position of each line of out that can raise one."""
        pad = "    " * (depth + 1)
        out.append("    " * depth + header)
        for name, params, func in self.defs:
            func.render(f"def {name}({params}):", depth + 1, out, table_name)
        out.append(pad + "try:")
        for indent, text, where in self.lines or [(0, "pass", None)]:
            out.append(pad + "    " * (indent + 1) + text)
            if where is not None:
                self.table[len(out)] = where
        out.append(pad + "except errors as exc:")
        out.append(pad + f"    raise placed(exc, {table_name}) from None")


class _Rule:
    """One rule's part in a generated function: the rule's name, the name
    its code gives its EvalStats, its scopes, and the diagnostics found in
    it."""

    __slots__ = ("rule", "stats", "scopes", "diagnostics")

    def __init__(self, rule: str, stats: str):
        self.rule, self.stats = rule, stats
        self.scopes: list[dict[str, str]] = [{}]  # variable -> its local, innermost last
        self.diagnostics: list[Diagnostic] = []


class _Emitter:
    """Writes rules as Python source.  builtins is the registry's table,
    and names are the rules a unit written now holds code of."""

    def __init__(self, builtins: dict[str, builtins_mod.Builtin], names: str):
        self.builtins, self.names = builtins, names
        self.constants: list = []
        self._constant_names: dict = {}
        self._count = 0
        self.units: list[tuple[str, str, str]] = []
        self.func = _Func({}, ("sink",))  # the walk's function, run(sink)

    def add_unit(self, name: str, params: list[str], func: _Func) -> None:
        """func as the source of a function compiled on its own, which takes
        the units it calls as defaults."""
        defaults = [f"{u}={u}" for u in sorted(func.units)]
        out: list[str] = []
        func.render(f"def {name}({', '.join(params + defaults)}):", 0, out, self.const(func.table))
        self.units.append((name, f"<rule {self.names}>", "\n".join(out) + "\n"))

    # -- writing lines --------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def bind(self, prefix: str = "v") -> str:
        """A new name, bound in the function being written."""
        name = self.fresh(prefix)
        self.func.binds.add(name)
        return name

    def read(self, *names: str) -> None:
        self.func.reads.update(names)

    def const(self, value: object) -> str:
        """The name of value among the constants."""
        kind = type(value)
        key = (kind, value) if kind in (str, int, float, bool) else id(value)
        name = self._constant_names.get(key)
        if name is None:
            name = self._constant_names[key] = f"c{len(self.constants)}"
            self.constants.append(value)
        return name

    def line(self, text: str, r: _Rule | None = None, span: ast.Span | None = None,
             builtin: str | None = None) -> None:
        """Write a line; one that can fail the rule gives the rule and span,
        and the built-in whose body it calls directly, if any."""
        where = (r.rule, span.line, span.column, builtin) if r is not None else None
        self.func.lines.append((self.func.indent, text, where))
        self.func.size += 1 + (builtin is not None)

    def open(self, header: str, block: bool = False) -> None:
        self.line(header)
        self.func.indent += 1
        self.func.blocks += block

    def close(self, block: bool = False) -> None:
        if self.func.lines[-1][0] < self.func.indent:
            self.line("pass")  # nothing to run here: a read of a variable, or no statement
        self.func.indent -= 1
        self.func.blocks -= block

    def full(self) -> bool:
        """Whether code written next goes into a unit of its own."""
        func = self.func
        return (func.blocks >= _MAX_BLOCKS or func.indent >= _MAX_INDENT
                or func.size >= _MAX_LINES)

    def function(self, params: str, body: Callable[[], str]) -> str:
        """A nested function of the one being written, whose lines body()
        writes and which returns what body() returns; its name."""
        name, outer = self.bind("f"), self.func
        self.func = _Func(outer.table, (params,) if params else ())
        self.line(f"return {body()}")
        func, self.func = self.func, outer
        outer.defs.append((name, params, func))
        outer.reads.update(func.reads - func.binds)
        outer.units |= func.units
        outer.size += func.size
        return name

    def unit(self, body: Callable[[], str | None]) -> str:
        """A call of a function compiled on its own, whose lines body()
        writes, with the names it reads, and which returns what body()
        returns.  Small units keep the peak memory of compiling small."""
        name, outer = self.fresh("u"), self.func
        self.func = _Func({})
        result = body()
        if result is not None:
            self.line(f"return {result}")
        func, self.func = self.func, outer
        params = sorted(func.reads - func.binds)
        self.add_unit(name, params, func)
        outer.reads.update(params)
        outer.units.add(name)
        return f"{name}({', '.join(params)})"

    def nest(self, body: Callable[[], None]) -> None:
        """Write a body here, or as a unit called here if full."""
        if self.full():
            self.line(self.unit(body))
        else:
            body()

    def diagnose(self, r: _Rule, code: str, message: str, span: ast.Span) -> None:
        r.diagnostics.append(Diagnostic(code, message, span.line, span.column))

    # -- statements -------------------------------------------------------------

    def stmts(self, stmts: tuple[ast.Stmt, ...], r: _Rule) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.ForStmt, ast.IfStmt)):
                loop = isinstance(stmt, ast.ForStmt)
                if loop:
                    items, local = self.value(stmt.container, r), self.bind()
                    self.loop(stmt.container, items, local)
                else:
                    self.open(f"if {self.cond(stmt.cond, r)}:")
                r.scopes.append({stmt.var: local} if loop else {})
                self.nest(lambda body=stmt.body: self.stmts(body, r))
                r.scopes.pop()
                self.close(block=loop)
            elif isinstance(stmt, ast.AssertStmt):
                self.open(f"if not {self.cond(stmt.cond, r)}:")
                args = ", ".join([self.value(arg, r) for arg in stmt.message.args])
                template = self.const(stmt.message.template)
                self.read("sink")
                self.line(f"report(sink, {self.const(r.rule)}, {template}, [{args}])")
                self.close()
            elif isinstance(stmt, ast.DeclStmt):
                local = self.bind()
                self.value(stmt.init, r, local)
                r.scopes[-1][stmt.var] = local
            else:
                raise TypeError(f"unknown statement node: {stmt!r}")

    # -- expressions -----------------------------------------------------------------

    def value(self, exp: ast.Exp, r: _Rule, into: str | None = None) -> str:
        """Write the statements that evaluate exp; a name that holds its
        value (into, if given) or "None" after a raise."""
        if isinstance(exp, ast.Paren):
            return self.value(exp.inner, r, into)
        if isinstance(exp, ast.FunctionCall):
            return self.call(exp, r, into=into)
        if isinstance(exp, ast.Identifier):
            local = next((s[exp.name] for s in reversed(r.scopes) if exp.name in s), None)
            if local is None:
                self.diagnose(r, UNDECLARED_VARIABLE,
                              f"variable '{exp.name}' is not declared in any enclosing scope",
                              exp.span)
                cause = self.const(f"variable '{exp.name}' is not bound")
                self.line(f"unbound({cause})", r, exp.span)
                local = "None"
            else:
                self.read(local)
            return self.assign(into, local)
        if isinstance(exp, ast.Literal):
            return self.assign(into, self.const(exp.value))
        if isinstance(exp, (ast.And, ast.Or)):
            target = self.assign(into, self.cond(exp.left, r))
            self.open(f"if {target}:" if isinstance(exp, ast.And) else f"if not {target}:")
            self.line(f"{target} = {self.nested_cond(exp.right, r)}")
            self.close()
            return target
        target = into or self.fresh("t")
        if isinstance(exp, ast.Eq):
            lhs, rhs = self.value(exp.lhs, r), self.value(exp.rhs, r)
            self.line(f"{target} = value_eq({lhs}, {rhs})")
        elif isinstance(exp, ast.Exists):
            self.exists(exp, r, target)
        elif isinstance(exp, ast.Not):
            self.line(f"{target} = not {self.cond(exp.operand, r)}")
        else:
            raise TypeError(f"unknown expression node: {exp!r}")
        return target

    def assign(self, into: str | None, value: str) -> str:
        if into is None or into == value:
            return value
        self.line(f"{into} = {value}")
        return into

    def cond(self, exp: ast.Exp, r: _Rule) -> str:
        """exp as a condition: a name holding a value whose Python truth
        is the condition's.  Its value must be a bool or MISSING (false);
        anything else fails the rule at exp's position."""
        value = self.value(exp, r)
        if _holds(self.known(exp), bool):
            return value
        # a temporary is read once, here; a variable's value is copied
        checked = value if value.startswith("t") else self.assign(self.fresh("t"), value)
        self.line(f"if {checked} is not True and {checked} is not False: "
                  f"{checked} = truth({checked})", r, exp.span)
        return checked

    def nested_cond(self, exp: ast.Exp, r: _Rule) -> str:
        """cond, written as a unit called here if full."""
        if not self.full():
            return self.cond(exp, r)
        return self.unit(lambda: self.cond(exp, r))

    def call(self, exp: ast.FunctionCall, r: _Rule, cached: bool = False,
             into: str | None = None) -> str:
        """The call as a statement: count it, then call the built-in, through
        the query cache (get) for a cached built-in, or for any built-in
        when cached is set.  Any other call of a known built-in with a count
        in its arity runs the body itself when the arguments pass its guard
        (see guard), and Registry.call, which checks them, otherwise."""
        spec = self.builtins.get(exp.name)
        if spec is None:
            self.diagnose(r, UNKNOWN_BUILTIN, f"'{exp.name}' is not a known built-in function",
                          exp.span)
        elif len(exp.args) not in spec.arity:
            self.diagnose(r, BUILTIN_ARITY,
                          builtins_mod.arity_message(exp.name, spec.arity, len(exp.args)),
                          exp.span)
        args = [self.value(arg, r) for arg in exp.args]
        listed, name, target = f"[{', '.join(args)}]", self.const(exp.name), into or self.fresh("t")
        self.line(f"{r.stats}.builtin_calls += 1")
        if spec is not None and (cached or spec.cached):
            self.line(f"a = {listed}")
            self.line(f"{target} = get(key_of({name}, a), call, {name}, a, model)", r, exp.span)
        elif spec is not None and len(args) in spec.arity and (
                guard := self.guard(spec, exp.args, args)) is not None:
            checked = f" if {guard} else call({name}, {listed}, model)" if guard else ""
            self.line(f"{target} = {self.const(spec.fn)}(registry, model, {listed}){checked}",
                      r, exp.span, spec.name)
        else:
            self.line(f"{target} = call({name}, {listed}, model)", r, exp.span)
        return target

    def guard(self, spec: builtins_mod.Builtin, exps: tuple[ast.Exp, ...],
              args: list[str]) -> str | None:
        """The test that a call's arguments exps, whose values args hold,
        pass the built-in's checks: each declared kind, then no MISSING at
        a position in missing that no kind checks.  A clause that an
        argument's known kind settles as true is left out ("" if all are);
        None if one is settled as false."""
        clauses = []
        for i, types, _ in spec.checks:
            holds = _holds(self.known(exps[i]), types)
            if holds is None:
                clauses.append(f"isinstance({args[i]}, {self.const(types)})")
            elif not holds:
                return None
        checked = {i for i, _, _ in spec.checks}
        clauses += [f"{args[i]} is not MISSING" for i in spec.missing if i not in checked
                    and _holds(self.known(exps[i]), type(V.MISSING)) is not False]
        return " and ".join(clauses)

    def known(self, exp: ast.Exp) -> type | tuple[type, ...]:
        """The kind that exp's value is known to have when the rule compiles:
        a literal's type; bool for ==, exists, AND, OR and NOT; a known
        built-in's declared result for a call of a count in its arity; else
        any object, as for a variable, whose declared type is not kept."""
        exp = _unparen(exp)
        if isinstance(exp, ast.FunctionCall):
            spec = self.builtins.get(exp.name)
            return spec.result[0] if spec is not None and len(exp.args) in spec.arity else object
        if isinstance(exp, ast.Literal):
            return type(exp.value)
        return bool if isinstance(exp, (ast.Eq, ast.Exists, ast.And, ast.Or, ast.Not)) else object

    def loop(self, container: ast.Exp, items: str, local: str) -> None:
        """Open a for of local over the elements of container, whose value
        items holds: a list as is, MISSING none, any other value itself;
        the list test is left out where items is known to be a list."""
        if not _holds(self.known(container), list):
            other = f"() if {items} is MISSING else ({items},)"
            items = f"({items} if isinstance({items}, list) else {other})"
        self.open(f"for {local} in {items}:", block=True)

    def exists(self, exp: ast.Exists, r: _Rule, target: str) -> None:
        """The exists as a scan loop, run where a lookup in its index, if one
        can answer it (plan_exists, plan_nested), declines."""
        items = self.container(exp.container, r)
        plan = plan_exists(exp)
        inner = None if plan else plan_nested(exp)
        plan = plan or (inner and plan_exists(inner))
        if plan is not None:
            each = self.side(inner.container, r, exp.var, container=True) if inner else None
            # e and f in the order of ==, the order the scan evaluates them in
            var = (inner or exp).var
            lhs = self.side(plan.eq.lhs, r, var if plan.keyed_left else None)
            rhs = self.side(plan.eq.rhs, r, None if plan.keyed_left else var)
            sides = f"{items}, {rhs}, {lhs}" if plan.keyed_left else f"{items}, {lhs}, {rhs}"
            listed = _holds(self.known(exp.container), list)
            test = items if listed else f"isinstance({items}, list) and {items}"
            self.line(f"{target} = lookup(indexes, {r.stats}, {self.const(exp)}, {sides}"
                      + (f", {each})" if inner else ")") + f" if {test} else None")
            self.open(f"if {target} is None:")
            # the sides hold the diagnostics of what the loop evaluates again
            recorded = len(r.diagnostics)
        local = self.bind()
        self.line(f"{target} = False")
        r.scopes.append({exp.var: local})
        self.loop(exp.container, items, local)
        self.line(f"{r.stats}.exists_predicate_evals += 1")
        self.open(f"if {self.nested_cond(exp.predicate, r)}:")
        self.line(f"{target} = True")
        self.line("break")
        self.close()
        self.close(block=True)
        r.scopes.pop()
        if plan is not None:
            del r.diagnostics[recorded:]
            self.close()

    def container(self, exp: ast.Exp, r: _Rule) -> str:
        """An exists container's value: an index is keyed on the container
        object, so a call goes through the query cache to come back the same."""
        call = _unparen(exp)
        if isinstance(call, ast.FunctionCall):
            return self.call(call, r, cached=True)
        return self.value(exp, r)

    def side(self, exp: ast.Exp, r: _Rule, var: str | None = None,
             container: bool = False) -> str:
        """A nested function that gives exp's value (as a container's, if
        container is set): of no argument, or of var's value."""
        param = self.fresh("v") if var is not None else ""  # bound by the function

        def body():
            r.scopes.append({var: param} if var is not None else {})
            value = (self.container if container else self.value)(exp, r)
            r.scopes.pop()
            return value

        return self.function(param, body)

    # -- a shared walk ---------------------------------------------------------------

    def steps(self, steps: tuple[Shared | Rest, ...], rules: dict[int, _Rule],
              members: dict[int, str]) -> None:
        for step in steps:
            # a unit written for the step names the rules whose code it holds
            names, self.names = self.names, ", ".join(
                rules[k].rule for k in step.rules)
            self.nest(lambda step=step: self.step(step, rules, members))
            self.names = names

    def step(self, step: Shared | Rest, rules: dict[int, _Rule], members: dict[int, str]) -> None:
        """Run the step for the rules it holds that have not stopped;
        members[k] names rule k's _Member."""
        if isinstance(step, Rest):
            (k,) = step.rules
            r, member = rules[k], members[k]
            self.open(f"if {member}.error is None:")
            self.open("try:", block=True)
            self.stmts(step.stmts, r)
            self.close(block=True)
            self.open("except stopping as exc:")
            self.line(f"fail(exc, {self.const(self.func.table)}, ({member},))")
            self.close()
            self.close()
            return
        group, stmt = [rules[k] for k in step.rules], step.stmts[0]
        stopped = [members[k] for k in step.rules]
        self.open("if " + " or ".join(f"{m}.error is None" for m in stopped) + ":")
        self.open("try:", block=True)
        local = None if isinstance(stmt, ast.IfStmt) else self.bind()
        recorded = len(group[0].diagnostics)
        if isinstance(stmt, ast.ForStmt):
            value = self.value(stmt.container, group[0])
        elif isinstance(stmt, ast.IfStmt):
            value = self.cond(stmt.cond, group[0])
        else:
            value = self.value(stmt.init, group[0], local)
        # each other rule's head holds what the first's does, at its own positions
        heads = tuple(_head(s) for s in step.stmts)
        for head, r in zip(heads[1:], group[1:]):
            r.diagnostics += [Diagnostic(d.code, d.message,
                                         *_position_in(heads[0], head, d.line, d.column))
                              for d in group[0].diagnostics[recorded:]]
        self.close(block=True)
        self.open("except stopping as exc:")
        heads = self.const(heads)
        self.line(f"fail(exc, {self.const(self.func.table)}, ({', '.join(stopped)},), {heads})")
        self.close()
        self.open("else:")
        for r in group:
            if isinstance(stmt, ast.DeclStmt):
                r.scopes[-1][stmt.var] = local
            else:
                r.scopes.append({stmt.var: local} if isinstance(stmt, ast.ForStmt) else {})
        if isinstance(stmt, ast.ForStmt):
            self.loop(stmt.container, value, local)
        elif isinstance(stmt, ast.IfStmt):
            self.open(f"if {value}:")
        self.steps(step.then, rules, members)
        if not isinstance(stmt, ast.DeclStmt):
            self.close(block=isinstance(stmt, ast.ForStmt))
            for r in group:
                r.scopes.pop()
        self.close()
        self.close()


def emit_walk(step: Shared | Rest, rules: list[ast.Rule],
              builtins: dict[str, builtins_mod.Builtin]) -> Generated:
    """The walk of step as run(sink): the k-th rule of step.rules appends
    its reports to sink as it makes them, and keeps its stopping error in
    member mk and its counts in EvalStats sk; its diagnostics are a list
    for each rule of step.rules, in source order, a shared statement's at
    the rule's own positions."""
    emitter = _Emitter(builtins, ", ".join(rules[k].name for k in step.rules))
    states = {k: _Rule(rules[k].name, f"s{i}") for i, k in enumerate(step.rules)}
    emitter.step(step, states, {k: f"m{i}" for i, k in enumerate(step.rules)})
    emitter.add_unit("run", ["sink"], emitter.func)
    return Generated(tuple(emitter.units), tuple(emitter.constants),
                     [r.diagnostics for r in states.values()])


def _load(generated: Generated, env: dict[str, object]) -> Callable:
    """Compile the generated units, one by one, and give the function run.
    They run in a namespace of env and the constants c0, c1, ..., only."""
    namespace = dict(env)
    namespace.update((f"c{i}", value) for i, value in enumerate(generated.constants))
    for _, filename, source in generated.units:
        exec(compile(source, filename, "exec"), namespace)
    run = namespace["run"]
    for name, _, _ in generated.units:
        del namespace[name]
    return run


class Interpreter:
    """Evaluates rules against one project model, one rule at a time.  A
    QueryCache shared by the interpreters of a check makes repeated model
    queries free across rules; given none, the interpreter makes its own."""

    def __init__(self, model: ProjectModel, registry: builtins_mod.Registry | None = None,
                 cache: QueryCache | None = None):
        self.model, self.registry = model, registry or builtins_mod.Registry()
        self.cache = cache or QueryCache()
        self.stats = EvalStats()
        # id(rule) -> (rule, its function); holding the rule keeps its id unique
        self._compiled: dict[int, tuple[ast.Rule, Callable[[list], None]]] = {}

    def run_rule(self, rule: ast.Rule, sink: list[BugReport] | None = None) -> list[BugReport]:
        """Run the rule's turn: the walk compile_pack gave it, appending the
        reports of each of the walk's rules to sink as they are made, or
        for a later rule of a walk, nothing but raising the error the walk
        held for it.  A rule this interpreter has not seen runs alone."""
        if sink is None:
            sink = []
        self.compile_rule(rule)(sink)
        return sink

    def compile_rule(self, rule: ast.Rule) -> Callable[[list], None]:
        """The rule's function of the sink, compiled once per interpreter,
        as the one-rule pack where compile_pack has not given it one."""
        if id(rule) not in self._compiled:
            compile_pack([self], emit_pack([rule], self.registry.builtins))
        return self._compiled[id(rule)][1]

    def _env(self) -> dict[str, object]:
        """The globals of this interpreter's generated functions."""
        errors = (*builtins_mod.CALL_ERRORS, V.ValueTypeError)
        return {
            "call": self.registry.call, "registry": self.registry, "model": self.model,
            "key_of": canonical_key, "MISSING": V.MISSING,
            "get": self.cache.get_or_compute, "indexes": self.cache.exists_indexes,
            "lookup": _index_lookup,
            "errors": errors, "stopping": (RuntimeRuleError, *errors),
            "placed": _placed, "value_eq": V.value_eq, "truth": V.is_truthy,
            "unbound": _unbound,
            "report": _report, "fail": _fail,
        }


# -- indexed exists ------------------------------------------------------------


def _index_lookup(indexes: dict[tuple[int, int], tuple], stats: EvalStats, exp: ast.Exists,
                  container: list, probe: Callable[[], object], keyed: Callable,
                  each: Callable | None = None) -> bool | None:
    """Answer a non-empty exists from its index, counting as the scan
    would; None means the scan must answer.  Every indexable exists asks
    here first.  The pair's first lookup builds the index: of keyed over
    container, or with each, of keyed over each(a) for every a of
    container.  Given the cache's indexes and the stats, not the
    interpreter, a compiled rule holds no reference back to it."""
    entry = indexes.get((id(exp), id(container)))
    if entry is None:
        index = (_build_index(container, keyed) if each is None
                 else _build_nested_index(container, each, keyed))
        # the entry holds the node and the container, so their ids stay unique
        entry = indexes[(id(exp), id(container))] = (exp, container, index)
    index = entry[2]
    if index is None:
        return None
    evals_at, miss_evals, probe_evals = index
    try:
        key = V.index_key(probe())
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


def _index_keys(evals_at: dict, evals: int, items: list, keyed: Callable) -> int | None:
    """Map f's index key at each of items, unless mapped already, to the
    predicate evaluations a scan has made on reaching it, evals before the
    first; the count after the last, or None if f fails or gives a value
    without a key at some element."""
    for element in items:
        evals += 1
        try:
            key = V.index_key(keyed(element))
        except RuntimeRuleError:
            return None
        if key is None:
            return None
        evals_at.setdefault(key, evals)
    return evals


def _build_index(container: list, keyed: Callable) -> tuple | None:
    """The index of `exists (T x in C) (f(x) == e)`: (f's key -> evaluations
    up to its first element, evaluations of a miss, evaluations when e
    fails), or None if f fails or gives no key somewhere."""
    evals_at: dict = {}
    evals = _index_keys(evals_at, 0, container, keyed)
    return None if evals is None else (evals_at, evals, 1)


def _build_nested_index(outer: list, each: Callable, keyed: Callable) -> tuple | None:
    """The index of `exists (T a in A) (exists (U b in B(a)) (f(b) == e))`,
    shaped as _build_index's, over every b of every B(a) in scan order: the
    key of b at (p, q) maps to p + 1 + |B_0| + ... + |B_p-1| + q + 1.  The
    scan evaluates e first at the first non-empty B(a).  None if some B(a)
    fails or is not a list, if f fails or gives no key somewhere, or if
    every B(a) is empty, where e is never evaluated."""
    evals_at: dict = {}
    evals = probe_evals = 0
    for a in outer:
        evals += 1
        try:
            items = each(a)
        except RuntimeRuleError:
            return None
        if not isinstance(items, list):
            return None
        if items and not probe_evals:
            probe_evals = evals + 1
        evals = _index_keys(evals_at, evals, items, keyed)
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
    """The statements of one rule, rules[0], that no other rule shares."""

    __slots__ = ("rules", "stmts")
    rules: tuple[int]
    stmts: tuple[ast.Stmt, ...]


def plan_pack(rules: list[ast.Rule]) -> list[Shared | Rest]:
    """The prefix tree of the pack: one Shared for each set of two or more
    rules whose first statements are equal but for their spans, and a Rest
    for each other rule."""
    return _plan([(i, rule.body, 0) for i, rule in enumerate(rules)])


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
                steps.append(Rest((rule,), stmts[i:]))
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
    """A rule in a walk: once a rule error has stopped it, the error's
    (cause, line, column).  It holds no exception and no interpreter, so
    nothing it holds leads back to it."""

    __slots__ = ("rule_name", "error")

    def __init__(self, rule_name: str):
        self.rule_name, self.error = rule_name, None


class Pack(Record):
    """A rule pack written as code: its rules; (each step of
    plan_pack(rules), the Generated of its walk), where a rule that shares
    nothing is a step of its own; and each rule's diagnostics, in source
    order."""

    __slots__ = ("rules", "walks", "diagnostics")
    rules: list[ast.Rule]
    walks: tuple[tuple[Shared | Rest, Generated], ...]
    diagnostics: tuple[list[Diagnostic], ...]


def emit_pack(rules: list[ast.Rule], builtins: dict[str, builtins_mod.Builtin]) -> Pack:
    """The code of every rule of rules, each written once, in its walk."""
    walks = tuple((step, emit_walk(step, rules, builtins)) for step in plan_pack(rules))
    found = {k: d for step, g in walks for k, d in zip(step.rules, g.diagnostics)}
    return Pack(rules, walks, tuple(found[k] for k in range(len(rules))))


def compile_pack(interpreters: list[Interpreter], pack: Pack) -> None:
    """Compile the code of pack, written with the built-in table of the
    interpreters' registry; interpreters[k] runs pack.rules[k], with one
    run_rule call per rule, in pack order.  A walk's first rule runs the
    whole walk, which appends the reports of every rule of it to the sink
    given to that call as they are made.  A rule error in a rule's own
    statements stops that rule only, and one in a shared statement every
    rule it still runs, each at its own position.  Each stopped rule's
    run_rule raises its error, in its turn: a later rule's adds nothing to
    the sink."""
    rules, members = pack.rules, [_Member(rule.name) for rule in pack.rules]
    for step, generated in pack.walks:
        env = interpreters[step.rules[0]]._env()
        for i, k in enumerate(step.rules):
            env[f"s{i}"], env[f"m{i}"] = interpreters[k].stats, members[k]
        walk = _load(generated, env)
        group = [members[k] for k in step.rules]
        for k, member in zip(step.rules, group):
            body = _walk_body(walk, group) if member is group[0] else _held_error(member)
            interpreters[k]._compiled[id(rules[k])] = (rules[k], body)


def _walk_body(walk: Callable, group: list[_Member]) -> Callable[[list], None]:
    """The first rule's body: the whole walk."""
    first = group[0]

    def run(sink):
        for member in group:
            member.error = None
        walk(sink)
        if first.error is not None:
            raise RuntimeRuleError(first.rule_name, *first.error)

    return run


def _held_error(member: _Member) -> Callable[[list], None]:
    """A later rule's body: the error the walk held for it, if any."""

    def held(sink):
        if member.error is not None:
            raise RuntimeRuleError(member.rule_name, *member.error)

    return held
