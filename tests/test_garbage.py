"""A check leaves no cyclic garbage.

The console entry runs a check with automatic garbage collection off
(see mecheck.cli.run), so whatever building the model or running the
rules leaves in reference cycles stays in memory until the process ends.
Here, with the collector paused and the model still held, a collection
after build_model, and again after run_checker, must find nothing to
free.
"""

import gc
from pathlib import Path

import pytest
from benchgen import write_workload

from mecheck import runner
from mecheck.model import project
from mecheck.model.xmldoc import MalformedXmlError, parse_xml

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def collector_paused():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def fixture_projects():
    return sorted(p.parent for p in FIXTURES.glob("**/expected.json"))


def assert_check_leaves_no_cyclic_garbage(root):
    gc.collect()
    model = project.build_model(root)
    assert gc.collect() == 0
    summary = runner.run_checker(runner.CheckerConfig(project_root=str(root)), model)
    assert gc.collect() == 0
    assert summary.rules_executed == 15 and not summary.diagnostics
    return model


@pytest.mark.parametrize("root", fixture_projects(), ids=lambda p: str(p.relative_to(FIXTURES)))
def test_fixture_check_leaves_no_cyclic_garbage(root, collector_paused):
    model = assert_check_leaves_no_cyclic_garbage(root)
    assert model.classes or model.xml_files


def test_bench_workload_check_leaves_no_cyclic_garbage(tmp_path, collector_paused):
    root = write_workload("bean-props", tmp_path / "project")
    model = assert_check_leaves_no_cyclic_garbage(root)
    assert model.classes and model.xml_files


@pytest.mark.parametrize("text", [
    "<beans><bean id='a'></beans>",  # a mismatched tag, inside the document
    "<?xml version='1.0'?>",  # no element, found at the end of the input
])
def test_malformed_xml_leaves_no_cyclic_garbage(tmp_path, collector_paused, text):
    path = tmp_path / "bad.xml"
    path.write_text(text)
    gc.collect()
    with pytest.raises(MalformedXmlError):
        parse_xml(path, "bad.xml")
    assert gc.collect() == 0
