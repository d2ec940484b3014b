"""The package runs on the oldest Python pyproject.toml admits, 3.10: its
sources, and the Python source it writes for rules, parse as 3.10 code,
and its regexes use no syntax that Python's re accepts only from 3.11 on
(possessive quantifiers, atomic groups)."""

import ast
import importlib
import pkgutil
import random
import re
import sys
from pathlib import Path

import pytest

import genrules
import mecheck
from mecheck.builtins import BUILTINS
from mecheck.rsl.parser import parse_rule
from mecheck.rulepack import default_rules_dir, load_rulepack
from mecheck.runtime.interpreter import emit_pack

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:
    import sre_parse

NEWER_THAN_3_10 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}
SOURCES = sorted(Path(mecheck.__file__).parent.rglob("*.py"))


def opcode_names(node):
    if isinstance(node, sre_parse.SubPattern):
        for op, av in node.data:
            yield str(op)
            yield from opcode_names(av)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from opcode_names(item)


def module_patterns():
    for info in pkgutil.walk_packages(mecheck.__path__, "mecheck."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                yield f"{info.name}.{name}", value


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def generated_sources():
    """(filename, source) of what the interpreter writes for the shipped pack
    and for a sample of genrules rules, valid and invalid."""
    pack = load_rulepack(default_rules_dir()).rules
    rng = random.Random(1729)
    sample = [parse_rule(genrules.render_rule(genrules.Gen(rng, with_beanid=i % 2 == 0).rule(),
                                              f"sample-{i}", with_beanid=i % 2 == 0))
              for i in range(40)]
    sample += [parse_rule(genrules.make_invalid_case(rng, variant)[0])
               for variant in genrules.INVALID_VARIANTS]
    packs = [emit_pack([rule], BUILTINS) for rule in pack + sample]
    packs.append(emit_pack(pack, BUILTINS))
    for generated in (g for p in packs for _, g in p.walks):
        for _, filename, source in generated.units:
            yield filename, source


def test_generated_rule_sources_parse_as_python_3_10():
    names = set()
    for name, source in generated_sources():
        ast.parse(source, filename=name, feature_version=(3, 10))
        names.add(name)
    assert {"<rule r15-bean-exists>", "<rule sample-0>", "<rule bad-exists-var>"} <= names
    assert any(name.startswith("<rule r2-bean-class-exists, ") for name in names)


def test_regexes_use_no_python_3_11_syntax():
    patterns = dict(module_patterns())
    assert "mecheck.model.javasrc._BODY" in patterns
    for name, pattern in patterns.items():
        used = set(opcode_names(sre_parse.parse(pattern.pattern, pattern.flags)))
        assert not used & NEWER_THAN_3_10, name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="re reads this syntax from 3.11 on")
def test_opcode_names_see_3_11_syntax():
    assert "POSSESSIVE_REPEAT" in set(opcode_names(sre_parse.parse("a(?:b|c*+)")))
    assert "ATOMIC_GROUP" in set(opcode_names(sre_parse.parse("(?>a)")))


def test_java_token_pattern_is_checked():
    assert "mecheck.model.javasrc._LEX" in dict(module_patterns())
