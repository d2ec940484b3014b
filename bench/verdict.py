"""Verdict check: compare one run's JSON reports with the generator manifest.

The manifest is the reference, never mecheck's own output.  For every
rule the number of findings must equal the number of injected defects,
and each finding must name a distinct injected identifier of its rule.
A missing finding, an extra finding or a finding that names no injected
identifier is a mismatch.  Locations are not part of the verdict; they
are measured on their own by located_share, so that findings reported at
line 0 are counted rather than hidden or turned into failures.
"""

from __future__ import annotations


def rule_id(rule_name: str) -> str:
    """'r15-bean-exists' -> 'r15'."""
    return rule_name.split("-", 1)[0]


def mismatches(reports: list[dict], manifest: dict) -> list[str]:
    """Every way the reports differ from the manifest; empty on a match."""
    messages: dict[str, list[str]] = {}
    for rep in reports:
        messages.setdefault(rule_id(rep["rule"]), []).append(rep["message"])
    expected = {r: list(d["names"]) for r, d in manifest["defects"].items()}
    problems = []
    for rule in sorted(set(expected) | set(messages), key=lambda r: int(r[1:])):
        unmatched = expected.get(rule, [])
        found = messages.get(rule, [])
        if len(found) != len(unmatched):
            problems.append(f"{rule}: {len(found)} findings, {len(unmatched)} injected")
        for msg in found:
            name = next((n for n in unmatched if n in msg), None)
            if name is None:
                problems.append(f"{rule}: finding names no injected defect: {msg}")
            else:
                unmatched.remove(name)
        problems.extend(f"{rule}: no finding names {n}" for n in unmatched)
    return problems


def located_share(reports: list[dict]) -> float:
    """Share of findings with a non-empty file and a line above 0."""
    if not reports:
        return 1.0
    located = sum(1 for r in reports if r["file"] and r["line"] > 0)
    return located / len(reports)
