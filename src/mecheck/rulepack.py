"""Loading a directory of .rsl rule files.

Files are read in sorted filename order so runs are deterministic.  Every
rule must tokenize, parse, have a name of its own, then validate as the
pack is written as code (emit_pack); the first problem, in that order,
stops the load with a RulePackError naming the file, because running a
partial pack would silently weaken the check.
"""

from __future__ import annotations

from pathlib import Path

from mecheck import builtins as builtins_mod
from mecheck.rsl import lexer, parser
from mecheck.runtime.interpreter import Pack, emit_pack


class RulePackError(Exception):
    def __init__(self, path: str, detail: str):
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail


def default_rules_dir() -> Path:
    return Path(__file__).parent / "rules"


def load_rulepack(rules_dir: str | Path) -> Pack:
    """Parse, validate and write as code every .rsl file in the directory."""
    root = Path(rules_dir)
    if not root.is_dir():
        raise RulePackError(str(rules_dir), "not a directory")
    paths = sorted(p for p in root.iterdir() if p.is_file() and p.suffix == ".rsl")
    if not paths:
        raise RulePackError(str(rules_dir), "contains no .rsl files")
    rules = []
    seen_names: dict[str, str] = {}
    for path in paths:
        label = path.name
        try:
            source = lexer.decode_source(path.read_bytes())
        except OSError as exc:
            raise RulePackError(label, f"cannot read file: {exc}") from exc
        except lexer.NonUtf8Input as exc:
            raise RulePackError(label, str(exc)) from exc
        try:
            rule = parser.parse_rule(source)
        except (lexer.LexError, parser.RslSyntaxError, parser.ArityMismatch) as exc:
            raise RulePackError(label, str(exc)) from exc
        if rule.name in seen_names:
            raise RulePackError(
                label, f"duplicate rule name {rule.name} (also in {seen_names[rule.name]})"
            )
        seen_names[rule.name] = label
        rules.append(rule)
    # looked up now, so a table swapped in before the load is the one written against
    pack = emit_pack(rules, builtins_mod.BUILTINS)
    for path, diagnostics in zip(paths, pack.diagnostics):
        if diagnostics:
            d = diagnostics[0]
            raise RulePackError(
                path.name, f"{d.code}: {d.message} (line {d.line}, column {d.column})")
    return pack
