"""Count where each evaluated built-in call runs.

Generated rule code runs a built-in's body itself when the call's
arguments pass the built-in's guard, and calls Registry.call, which
checks them, when they do not; a call through the query cache reaches
Registry.call on a miss.  A BodyCounter's table is a built-in table whose
records wrap each body, and its call wraps Registry.call (or the given
call).  direct counts, by name, the body runs no Registry.call is running
around; registry counts the Registry.calls; seen lists (name, args) of
both, in the order they start.
"""

from collections import Counter

from mecheck.builtins import BUILTINS, Builtin, Registry


def rebuilt(spec: Builtin, fn) -> Builtin:
    """spec with fn as its body."""
    return Builtin(**{**{name: getattr(spec, name) for name in type(spec).__slots__}, "fn": fn})


class BodyCounter:
    def __init__(self, call=Registry.call, table=BUILTINS):
        self.direct, self.registry = Counter(), Counter()
        self.seen: list[tuple[str, list]] = []
        depth = [0]  # Registry.calls running

        def counted(name, fn):
            def body(registry, model, args):
                if not depth[0]:
                    self.direct[name] += 1
                    self.seen.append((name, args))
                return fn(registry, model, args)
            return body

        def counting_call(registry, name, args, model):
            self.registry[name] += 1
            self.seen.append((name, args))
            depth[0] += 1
            try:
                return call(registry, name, args, model)
            finally:
                depth[0] -= 1

        self.table = {name: rebuilt(spec, counted(name, spec.fn)) for name, spec in table.items()}
        self.call = counting_call

    def total(self) -> int:
        """Direct body runs and Registry.calls."""
        return sum(self.direct.values()) + sum(self.registry.values())
