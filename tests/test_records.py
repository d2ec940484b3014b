"""What the plain classes of the model and the AST promise.

Model items compare and hash by identity and carry no instance dict.
Value records (AST nodes, BugReport and the other immutable records)
compare and hash by value, reject assignment, and list their fields in
__slots__.  Starting a check imports none of the machinery that only
tests or an error path need.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mecheck.builtins import BUILTINS, Builtin
from mecheck.model.items import (
    AnnotationUse,
    CallSite,
    ClassItem,
    ConstructorItem,
    FieldItem,
    Members,
    MethodItem,
    Param,
    XmlElement,
    XmlFile,
)
from mecheck.model.project import ModelWarning
from mecheck.record import Record
from mecheck.rsl import ast
from mecheck.rsl.parser import parse_rule
from mecheck.rsl.validator import Diagnostic
from mecheck.rulepack import default_rules_dir
from mecheck.runner import CheckerConfig
from mecheck.runtime.interpreter import BugReport, EqPlan

ROOT = Path(__file__).resolve().parent.parent

OWNER = ClassItem("A", "p.A", "class", ("B",), (), "A.java", 3)
ELEMENT = XmlElement("bean", {"id": "a"}, 2)

# (item class, constructor arguments); each is built twice from the same arguments
ITEMS = [
    (AnnotationUse, ("Bean", {"value": ["x"]}, 1)),
    (Param, ("int", "x")),
    (MethodItem, ("m", "void", (), (), OWNER, 4)),
    (ConstructorItem, ((), (), OWNER, 5)),
    (FieldItem, ("f", "int", (), OWNER, 6)),
    (CallSite, ("getBean", ("a",), OWNER, "A.java", 7)),
    (Members, ((), (), (), ())),
    (ClassItem, ("A", "p.A", "class", (), (), "A.java", 3)),
    (XmlElement, ("bean", {"id": "a"}, 2)),
    (XmlFile, ("ctx.xml", ELEMENT)),
]

# One rule that holds every statement and expression node.
EVERY_NODE = """\
Rule every-node {
  for (<bean> b in getElms(getXMLs(), "bean")) {
    String n = getAttr(b, "id");
    if (NOT (isEmpty(n) OR startsWith(n, 'x'))) {
      assert (exists (class c in getClasses()) (getName(c) == n) AND substring(n, 0, 1.5)) {
        msg("no class %s", n);
      }
    }
  }
}
"""


def nodes(value):
    """Every record reachable from value."""
    if isinstance(value, Record):
        yield value
        for name in value.__slots__:
            yield from nodes(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from nodes(item)


def records_of(module):
    return [v for v in vars(module).values()
            if isinstance(v, type) and issubclass(v, Record) and v.__slots__]


@pytest.mark.parametrize("cls, args", ITEMS, ids=[c.__name__ for c, _ in ITEMS])
def test_model_items_compare_and_hash_by_identity(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    assert len({a, b, a}) == 2
    assert not hasattr(a, "__dict__")


def test_model_items_keep_their_defaults():
    anno = AnnotationUse("Bean")
    assert (anno.attrs, anno.line) == ({}, 0)
    assert anno.attrs is not AnnotationUse("Bean").attrs
    elem = XmlElement("beans", {}, 1)
    assert (elem.children, elem.file) == ([], None)
    assert CallSite("getBean", (), OWNER, "A.java", 1).ordinal == 0
    members = ClassItem("C", "C", "class", (), (), "C.java", 1).members()
    assert (members.fields, members.methods, members.constructors, members.call_sites) == \
        ((), (), (), ())


def test_every_node_class_is_reached():
    reached = {type(n) for n in nodes(parse_rule(EVERY_NODE))}
    assert reached == set(records_of(ast))


def test_ast_nodes_compare_and_hash_by_value():
    for source in [EVERY_NODE] + [p.read_text() for p in sorted(default_rules_dir().glob("*.rsl"))]:
        first, second = parse_rule(source), parse_rule(source)
        assert first is not second
        assert first == second and hash(first) == hash(second)
    assert parse_rule("\n" + EVERY_NODE) != parse_rule(EVERY_NODE)  # the spans differ
    span = ast.Span(1, 1)
    assert ast.Identifier("x", span) != ast.Literal("x", "string", span)
    assert ast.Identifier("x", span) != ast.Identifier("y", span)


def test_ast_nodes_reject_assignment():
    for node in nodes(parse_rule(EVERY_NODE)):
        name = node.__slots__[0]
        before = getattr(node, name)
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert getattr(node, name) is before


def test_other_records_compare_by_value_and_reject_assignment():
    get_attr = BUILTINS["getAttr"]
    made = [
        lambda: BugReport("r1", "m", "a.xml", 3, 0),
        lambda: Diagnostic("code", "message", 1, 2),
        lambda: ModelWarning("a.xml", "skipped"),
        lambda: CheckerConfig("proj"),
        lambda: EqPlan(None, True),
        lambda: ast.TypeTag(ast.ELEMENT, "bean"),
        lambda: Builtin(get_attr.name, get_attr.fn, get_attr.arity),
    ]
    for make in made:
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and a is not b
        with pytest.raises(AttributeError):
            setattr(a, a.__slots__[0], "changed")
    assert CheckerConfig("proj") != CheckerConfig("proj", use_cache=False)
    assert BugReport("r1", "m", "a.xml", 3, 0) != BugReport("r1", "m", "a.xml", 3, 1)
    assert repr(BugReport("r1", "m", "a.xml", 3, 0)) == \
        "BugReport(rule_name='r1', message='m', file_path='a.xml', line=3, ordinal=0)"


def test_records_take_keywords_and_reject_unknown_fields():
    assert BugReport(rule_name="r", message="m", file_path="", line=0, ordinal=1) == \
        BugReport("r", "m", "", 0, 1)
    with pytest.raises(TypeError):
        ast.Span(1)
    with pytest.raises(TypeError):
        ast.Span(1, 2, 3)
    with pytest.raises(TypeError):
        ast.Span(1, 2, end_col=4)


@pytest.mark.parametrize("module", ["mecheck.rsl.ast", "mecheck.runtime.interpreter",
                                    "mecheck.runner", "mecheck.builtins",
                                    "mecheck.model.project", "mecheck.rsl.validator"])
def test_record_annotations_name_their_slots(module):
    __import__(module)
    for cls in records_of(sys.modules[module]):
        if cls.__module__ == module:
            assert tuple(cls.__annotations__) == cls.__slots__, cls.__name__


STARTUP = """\
import json, sys
before = set(sys.modules)
import mecheck.cli
from mecheck.rulepack import default_rules_dir, load_rulepack
load_rulepack(default_rules_dir())
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_starting_a_check_imports_no_dataclass_machinery_or_printer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = set(json.loads(proc.stdout))
    assert "mecheck.rulepack" in imported
    assert not imported & {"dataclasses", "inspect", "traceback", "mecheck.rsl.printer"}


# What STARTUP imported before rsl.validator came to import the runtime.
STARTUP_MODULES = {
    "__future__", "argparse", "gc", "gettext", "mecheck", "mecheck.builtins", "mecheck.cli",
    "mecheck.model", "mecheck.model.items", "mecheck.model.javasrc", "mecheck.model.project",
    "mecheck.model.xmldoc", "mecheck.record", "mecheck.rsl", "mecheck.rsl.ast",
    "mecheck.rsl.lexer", "mecheck.rsl.parser", "mecheck.rsl.validator", "mecheck.rulepack",
    "mecheck.runner", "mecheck.runtime", "mecheck.runtime.cache",
    "mecheck.runtime.interpreter", "mecheck.runtime.values", "pyexpat", "pyexpat.errors",
    "pyexpat.model", "unicodedata", "xml", "xml.parsers", "xml.parsers.expat",
    "xml.parsers.expat.errors", "xml.parsers.expat.model",
}


def run_fresh(code):
    """code run by a new interpreter that has imported no mecheck module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


@pytest.mark.parametrize("module", ["mecheck.rsl", "mecheck.rsl.validator",
                                    "mecheck.runtime.interpreter", "mecheck.rulepack"])
def test_each_module_of_the_rsl_runtime_cycle_imports_first(module):
    # rsl.validator imports runtime.interpreter, which imports rsl.ast
    proc = run_fresh(f"import {module}\nimport mecheck.rsl.validator, mecheck.runtime\n")
    assert proc.returncode == 0, proc.stderr


def test_starting_a_check_imports_no_new_module():
    proc = run_fresh(STARTUP)
    assert proc.returncode == 0, proc.stderr
    imported = set(json.loads(proc.stdout))
    assert imported <= STARTUP_MODULES, sorted(imported - STARTUP_MODULES)
    assert {m for m in STARTUP_MODULES if m.startswith("mecheck")} <= imported
