"""Valid but unusual input never aborts a check.

Generated project trees, written to disk, go through cli.main and
run_checker: Java sources from tests/javagen.py, deeply nested code, open
comments and text blocks, byte order marks, bytes that are not UTF-8, and
XML with a huge attribute count or deep nesting.  The exit code is 0, 1 or
2, never 3 (internal error), and the reports do not depend on the query
cache.  A source path that is no regular file is skipped, never read.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from javagen import java_sources

from mecheck import cli, runner

BOM = "﻿".encode()
NOT_UTF8 = [b"\xff\xfe", b"caf\xe9", b"\xc3", b"\x80\x81"]

_trees = itertools.count()


def deep_java(depth):
    classes = "".join(f"static class N{k} {{ " for k in range(depth))
    blocks = "{ " * depth + 'getBean("deep");' + " }" * depth
    return (f"package com.deep;\nclass Deep {{ {classes}void m() {{ {blocks} }}"
            + " }" * depth + " }\n")


def beans_xml(classes, attributes, depth):
    beans = "".join(f'<bean id="b{k}" class="{name}"><property name="p"/></bean>'
                    for k, name in enumerate(classes))
    wide = "".join(f' a{k}="{k}"' for k in range(attributes))
    deep = "<bean>" * depth + "</bean>" * depth
    return (f'<?xml version="1.0" encoding="UTF-8"?>\n<beans>{beans}<bean id="wide"{wide}/>'
            f"<bean id=\"outer\" class=\"com.x.Outer\">{deep}</bean></beans>\n")


@st.composite
def project_trees(draw):
    """Relative path -> file bytes."""
    files = {}
    for k, source in enumerate(draw(st.lists(java_sources(), min_size=1, max_size=4))):
        data = source.encode()
        if draw(st.booleans()):
            data = BOM + data
        if draw(st.integers(0, 3)) == 0:
            cut = draw(st.integers(0, len(data)))
            data = data[:cut] + draw(st.sampled_from(NOT_UTF8)) + data[cut:]
        files[f"src/main/java/com/acme/F{k}.java"] = data
    if draw(st.booleans()):
        files["src/main/java/com/deep/Deep.java"] = deep_java(draw(st.integers(1, 300))).encode()
    xml = beans_xml(
        draw(st.lists(st.sampled_from(["com.acme.A0", "com.acme.Bean0", "A0", "com.x.Y", ""]),
                      max_size=4)),
        draw(st.sampled_from([0, 3, 5000])),
        draw(st.sampled_from([0, 10, 2000])),
    ).encode()
    if draw(st.booleans()):
        xml = BOM + xml
    files["src/main/resources/beans.xml"] = xml
    files["src/main/resources/odd.xml"] = draw(st.sampled_from([
        b"<beans><!-- never closed", b"<beans><bean class='caf\xe9'/></beans>",
        b'<beans><bean class="com.acme.A0"', b"",
    ]))
    return files


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def reports_without_time(summary):
    payload = json.loads(runner.render_json(summary))
    del payload["summary"]["elapsedMs"]
    return payload, summary.diagnostics, summary.warnings


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(project_trees())
def test_generated_trees_never_abort_and_ignore_the_cache(tmp_path, capsys, files):
    root = tmp_path / f"tree{next(_trees)}"
    write_tree(root, files)
    assert cli.main(["--project", str(root), "--format", "json"]) in (0, 1, 2)
    capsys.readouterr()
    cached = runner.run_checker(runner.CheckerConfig(project_root=str(root)))
    uncached = runner.run_checker(runner.CheckerConfig(project_root=str(root), use_cache=False))
    assert reports_without_time(cached) == reports_without_time(uncached)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifos_named_like_sources_are_skipped_unopened(tmp_path):
    # Opening a FIFO for reading blocks until a writer comes, so a check
    # that read one would never end; the timeout catches that.
    (tmp_path / "ctx.xml").write_text('<beans><bean id="a" class="p.A"/></beans>\n')
    (tmp_path / "A.java").write_text("package p;\npublic class A { }\n")
    os.mkfifo(tmp_path / "X.java")
    os.mkfifo(tmp_path / "pipe.xml")
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "mecheck.cli", "--project", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "mecheck: warning: pipe.xml: skipped: not a regular file",
        "mecheck: warning: X.java: skipped: not a regular file",
    ]
    assert proc.stdout == "0 findings across 15 rules\n"
