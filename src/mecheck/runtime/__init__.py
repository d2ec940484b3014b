"""Rule evaluation: values, query cache, interpreter."""

from mecheck.runtime.interpreter import BugReport, Interpreter, RuntimeRuleError
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.values import MISSING

__all__ = [
    "BugReport",
    "Interpreter",
    "MISSING",
    "QueryCache",
    "RuntimeRuleError",
]
