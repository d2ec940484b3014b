"""Traced check: wrap mecheck's public layer functions and record spans.

    PYTHONPATH=src python3 bench/tracing.py --spans OUT.json \\
        --project P --format json --no-fail

runs one check exactly as the `mecheck` command does, with the layer
functions listed in install() replaced by wrappers that record spans.  mecheck itself is not
changed; the wrappers are installed from here, in the module where each
function is looked up at call time (`parse_xml` is imported by name into
model.project, `canonical_key` into runtime.interpreter and `build_model`
into runner, so those are patched there).

A span is (name, parent, start_ns, end_ns, calls, busy_ns).  Spans are
kept in memory and written to OUT.json when the check ends.  Cold calls
(one per file, class or rule) get a span each, with calls == 1 and busy
== end - start.  The three per-query functions run hundreds of thousands
of times in one check, so their calls are folded: all calls of one name
under one parent span share a span whose calls counts them and whose
busy sums their durations.  A ClassItem.members() call that returns members already
loaded is not a load and gets no span.

Self time of a span is its busy time minus the busy time of its child
spans; the layer metrics below are sums of self times, so together they
partition the time covered by the root spans.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

SPAN_FIELDS = ("name", "parent", "start", "end", "calls", "busy")
NO_PARENT = -1

# Builtins the built-in rule pack calls; each gets a calls and an ms metric.
PACK_BUILTINS = (
    "classExists", "elementExists", "endsWith", "getAnnoAttr", "getAnnotated",
    "getArg", "getAttr", "getAttrs", "getConstructors", "getElms", "getFamily",
    "getMethods", "getName", "getReturnType", "getSN", "getXMLs", "hasAnnoAttr",
    "hasAnnotation", "hasAttr", "hasParam", "hasParamType", "indexInBound",
    "indexOf", "isIterable", "isLibraryClass", "isUniqueSN", "join",
    "locateClassFQN", "locateClassSN", "pathExists", "startsWith", "substring",
    "upperCase",
)
RULE_IDS = tuple(f"r{i}" for i in range(1, 16))


class Tracer:
    """Span store: parallel lists indexed by span id, plus a parent stack."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.calls: list[int] = []
        self.busy: list[int] = []
        self.stack: list[int] = [NO_PARENT]
        self.folded: dict[tuple[int, str], int] = {}
        self.counters: dict[str, int] = {}

    def _new(self, name: str, start: int) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.starts.append(start)
        self.ends.append(start)
        self.calls.append(0)
        self.busy.append(0)
        return sid

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, fn, name_of, after=None):
        """Wrap fn so each call is one span; after(args, result) runs once
        the span is closed, to record counters outside the timed region."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._new(name_of(args), tracer.clock())
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer.stack.pop()
                tracer.ends[sid] = end
                tracer.calls[sid] = 1
                tracer.busy[sid] = end - tracer.starts[sid]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def folded_span(self, fn, name_of):
        """Wrap a per-query function: calls fold into one span per
        (parent, name)."""
        tracer, stack, folded, clock = self, self.stack, self.folded, self.clock
        calls, busy, ends = self.calls, self.busy, self.ends

        @functools.wraps(fn)
        def wrapper(*args):
            key = (stack[-1], name_of(args))
            sid = folded.get(key)
            if sid is None:
                sid = folded[key] = tracer._new(key[1], clock())
            stack.append(sid)
            start = clock()
            try:
                return fn(*args)
            finally:
                end = clock()
                stack.pop()
                calls[sid] += 1
                busy[sid] += end - start
                ends[sid] = end

        return wrapper

    def spans(self) -> list[list]:
        return [list(s) for s in zip(self.names, self.parents, self.starts,
                                     self.ends, self.calls, self.busy)]


def install(tracer: Tracer) -> dict:
    """Patch mecheck's layer functions; returns a holder that receives the
    model and the query caches the check creates."""
    from mecheck import rulepack, runner
    from mecheck.builtins import Registry
    from mecheck.model import items, javasrc, project
    from mecheck.runtime import cache, interpreter

    seen: dict = {"model": None, "caches": []}

    def named(name):
        return lambda args: name

    def kept_model(args, model):
        seen["model"] = model

    def rule_stats(args, result):
        stats = args[0].stats
        tracer.count("interpreter.builtin_calls", stats.builtin_calls)
        tracer.count("interpreter.exists_predicate_evals", stats.exists_predicate_evals)

    def rule_name(args):
        return "rule:" + args[1].name.split("-", 1)[0]

    def reports(args, result):
        tracer.count("runner.reports", len(args[0].reports))

    def tokens(args, result):
        tracer.count("javasrc.tokens", len(result))

    rulepack.load_rulepack = tracer.span(rulepack.load_rulepack, named("load_rulepack"))
    runner.build_model = tracer.span(runner.build_model, named("build_model"), kept_model)
    project.parse_xml = tracer.span(project.parse_xml, named("parse_xml"))
    javasrc.tokenize_java = tracer.span(javasrc.tokenize_java, named("tokenize_java"), tokens)
    javasrc.scan_declarations = tracer.span(javasrc.scan_declarations, named("scan_declarations"))
    javasrc.extract_members = tracer.span(javasrc.extract_members, named("extract_members"))
    runner.render_reports = tracer.span(runner.render_reports, named("render_reports"), reports)
    interpreter.Interpreter.run_rule = tracer.span(
        interpreter.Interpreter.run_rule, rule_name, rule_stats)

    members = items.ClassItem.members
    load = tracer.span(members, named("member_load"))

    @functools.wraps(members)
    def members_wrapper(self):
        if self._members is not None:
            return self._members
        return load(self)

    items.ClassItem.members = members_wrapper

    Registry.call = tracer.folded_span(Registry.call, lambda args: "builtin:" + args[1])
    interpreter.canonical_key = tracer.folded_span(
        interpreter.canonical_key, named("canonical_key"))
    cache.QueryCache.get_or_compute = tracer.folded_span(
        cache.QueryCache.get_or_compute, named("get_or_compute"))

    cache_init = cache.QueryCache.__init__

    def init_wrapper(self, *args, **kwargs):
        cache_init(self, *args, **kwargs)
        seen["caches"].append(self)

    cache.QueryCache.__init__ = init_wrapper
    return seen


def finish_counters(tracer: Tracer, seen: dict) -> None:
    """Counters read from the model and caches once the check is over."""
    model = seen["model"]
    if model is not None:
        tracer.count("project.java_files", model.java_file_count)
        tracer.count("project.xml_files", len(model.xml_files))
        tracer.count("xmldoc.elements", sum(
            sum(1 for _ in xf.iter_elements()) for xf in model.xml_files))
    for qc in seen["caches"]:
        tracer.count("cache.hits", qc.hits)
        tracer.count("cache.misses", qc.misses)


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its busy time minus its children's."""
    own = [s[5] for s in spans]
    for s in spans:
        parent = s[1]
        if parent != NO_PARENT:
            own[parent] -= s[5]
    return own


def layer_metrics(spans: list[list], counters: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced check (times in ms, counts raw)."""
    own = self_times(spans)
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        ms[s[0]] = ms.get(s[0], 0.0) + t / 1e6
        calls[s[0]] = calls.get(s[0], 0) + s[4]

    def c(key):
        return counters.get(key, 0)

    tokenize_ms = ms.get("tokenize_java", 0.0)
    hits, misses = c("cache.hits"), c("cache.misses")
    out = {
        "javasrc.tokenize_ms": tokenize_ms,
        "javasrc.tokenize_calls": calls.get("tokenize_java", 0),
        "javasrc.tokens": c("javasrc.tokens"),
        "javasrc.tokens_per_s": c("javasrc.tokens") / (tokenize_ms / 1000) if tokenize_ms else 0.0,
        "javasrc.scan_ms": ms.get("scan_declarations", 0.0),
        "javasrc.extract_ms": ms.get("extract_members", 0.0),
        "javasrc.extract_calls": calls.get("extract_members", 0),
        "project.walk_ms": ms.get("build_model", 0.0),
        "project.java_files": c("project.java_files"),
        "project.xml_files": c("project.xml_files"),
        "items.member_loads": calls.get("member_load", 0),
        "items.member_load_ms": ms.get("member_load", 0.0),
        "xmldoc.parse_ms": ms.get("parse_xml", 0.0),
        "xmldoc.parse_calls": calls.get("parse_xml", 0),
        "xmldoc.elements": c("xmldoc.elements"),
    }
    for rid in RULE_IDS:
        out[f"interpreter.rule.{rid}_ms"] = ms.get(f"rule:{rid}", 0.0)
    out["interpreter.builtin_calls"] = c("interpreter.builtin_calls")
    out["interpreter.exists_predicate_evals"] = c("interpreter.exists_predicate_evals")
    builtin_names = [n for n in ms if n.startswith("builtin:")]
    out["builtins.calls"] = sum(calls[n] for n in builtin_names)
    out["builtins.ms"] = sum(ms[n] for n in builtin_names)
    for name in PACK_BUILTINS:
        out[f"builtins.{name}.calls"] = calls.get(f"builtin:{name}", 0)
        out[f"builtins.{name}.ms"] = ms.get(f"builtin:{name}", 0.0)
    out.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.key_ms": ms.get("canonical_key", 0.0),
        "cache.lookup_ms": ms.get("get_or_compute", 0.0),
        "rsl.load_ms": ms.get("load_rulepack", 0.0),
        "runner.render_ms": ms.get("render_reports", 0.0),
        "runner.reports": c("runner.reports"),
    })
    accounted_ms = sum(own) / 1e6
    out["trace.check_s"] = wall_s
    out["trace.unaccounted_ms"] = wall_s * 1000 - accounted_ms
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one traced mecheck check.")
    ap.add_argument("--spans", required=True, help="file the spans are written to")
    args, check_args = ap.parse_known_args(argv)
    from mecheck import cli

    tracer = Tracer()
    seen = install(tracer)
    code = cli.main(check_args)
    sys.stdout.flush()
    finish_counters(tracer, seen)
    with open(args.spans, "w", encoding="utf-8") as out:
        json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans(),
                   "counters": tracer.counters}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
