"""Command line interface.

    mecheck --project PATH [--rules DIR] [--format text|json]
            [--lib-patterns FILE] [--resource-root DIR]...
            [--ignore GLOB]... [--no-fail]

Exit codes: 0 clean, 1 findings reported, 2 usage or configuration
problem, 3 internal error, 4 a rule stopped with a rule error (before 1,
and also under --no-fail, since a stopped rule checked nothing after the
error).  When --rules is absent the MECHECK_RULES environment variable
is consulted, then the built-in rule pack.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from mecheck import builtins as builtins_mod
from mecheck import runner
from mecheck.model.project import DEFAULT_IGNORE_GLOBS, RootNotFound
from mecheck.rulepack import RulePackError

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_RULE_ERROR = 4


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mecheck",
        description="Check Java/XML configuration metadata against consistency rules.",
    )
    p.add_argument("--project", required=True, help="project root directory to check")
    p.add_argument(
        "--rules",
        default=None,
        help="directory of .rsl rule files (default: $MECHECK_RULES or the built-in pack)",
    )
    p.add_argument(
        "--format",
        choices=[runner.TEXT, runner.JSON],
        default=runner.TEXT,
        help="report format (default: text)",
    )
    p.add_argument(
        "--lib-patterns",
        default=None,
        help="file of anchored regexes naming known library classes",
    )
    p.add_argument(
        "--resource-root",
        action="append",
        default=None,
        metavar="DIR",
        help="extra root for resolving configuration file paths (repeatable)",
    )
    p.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="GLOB",
        help="glob of directory or file names to skip while walking (repeatable)",
    )
    p.add_argument(
        "--no-fail",
        action="store_true",
        help="exit 0 even when findings are reported (a rule error still exits 4)",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    rules_dir = args.rules or os.environ.get("MECHECK_RULES") or None
    resource_roots = (
        tuple(args.resource_root)
        if args.resource_root
        else builtins_mod.DEFAULT_RESOURCE_ROOTS
    )
    ignore_globs = tuple(args.ignore) if args.ignore else DEFAULT_IGNORE_GLOBS

    config = runner.CheckerConfig(
        project_root=args.project,
        rules_dir=rules_dir,
        lib_patterns_file=args.lib_patterns,
        resource_roots=resource_roots,
        ignore_globs=ignore_globs,
    )

    try:
        summary = runner.run_checker(config)
    except (RootNotFound, RulePackError, builtins_mod.PatternFileError) as exc:
        print(f"mecheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only here: importing it costs every check's start

        print("mecheck: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL

    for warning in summary.warnings:
        print(f"mecheck: warning: {warning}", file=sys.stderr)
    for diagnostic in summary.diagnostics:
        print(f"mecheck: rule error: {diagnostic}", file=sys.stderr)

    sys.stdout.write(runner.render_reports(summary, args.format))

    if summary.diagnostics:
        return EXIT_RULE_ERROR
    if summary.reports and not args.no_fail:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def run() -> None:
    """The console entry: one check in a process that ends with it.

    Automatic garbage collection is off for the check, because the model
    is built to be kept until the end, and cyclic passes over it would
    free nothing.  Before exiting, gc.freeze() moves what is left into the
    permanent generation, so the collection at interpreter shutdown
    neither walks nor frees the dead model: its memory goes back to the
    OS with the process.  main() leaves the caller's GC state alone."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
