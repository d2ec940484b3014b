"""Frozen copies of the generic built-in dispatch and of two string bodies.

tests/test_dispatch.py compares mecheck's Registry.call, which calls each
record's checked entry, against reference_call, which reads the record's
contract at every call: arity, then the MISSING positions, then the
argument kinds, then the body, filling the called name into a
BuiltinTypeError or PreconditionError.  reference_upper_case and
reference_join are the bodies upperCase and join had when this copy was
made.  Keep their logic unchanged.
"""

from mecheck.builtins import (
    BuiltinArityError,
    BuiltinTypeError,
    PreconditionError,
    UnknownBuiltinError,
)
from mecheck.runtime.values import MISSING, kind_name


def reference_call(registry, name, args, model):
    spec = registry.builtins.get(name)
    if spec is None:
        raise UnknownBuiltinError(name)
    if len(args) not in spec.arity:
        raise BuiltinArityError(name, spec.arity, len(args))
    for i in spec.missing:
        if args[i] is MISSING:
            result = spec.on_missing
            return [] if type(result) is list else result
    try:
        for i, types, expected in spec.checks:
            if not isinstance(args[i], types):
                raise BuiltinTypeError(i, expected, kind_name(args[i]))
        return spec.fn(registry, model, args)
    except (BuiltinTypeError, PreconditionError) as exc:
        exc.name = name
        raise


def reference_upper_case(s):
    return "".join(
        chr(ord(c) - 32) if "a" <= c <= "z" else c for c in s
    )


def reference_join(args):
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
    raise BuiltinTypeError(first_bad, f"all text or all lists ({kinds})", kind_name(args[first_bad]))
