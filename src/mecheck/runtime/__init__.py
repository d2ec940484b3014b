"""Rule evaluation: values, environments, query cache, interpreter."""

from mecheck.runtime.interpreter import BugReport, Interpreter, RuntimeRuleError
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.env import EnvStack
from mecheck.runtime.values import MISSING

__all__ = [
    "BugReport",
    "EnvStack",
    "Interpreter",
    "MISSING",
    "QueryCache",
    "RuntimeRuleError",
]
