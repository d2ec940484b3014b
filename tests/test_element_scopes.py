"""getElms and elementExists against a reference walk of the element tree.

Generated XML trees are parsed, and both built-ins are asked about every
file and every element with exact, '*'-prefix and '<*>' globs.  The
reference is the plain recursive definition: a file's scope is its root
and every descendant, an element's scope is its descendants, both in
document order; a glob matches a whole name, '*' any run of characters,
and "<name>" means "name".

The memo of compiled globs stays bounded when a rule builds patterns at
run time.
"""

import itertools
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mecheck import builtins
from mecheck.builtins import Registry
from mecheck.model.items import XmlFile
from mecheck.model.project import build_model
from mecheck.model.xmldoc import parse_xml
from mecheck.rsl.parser import parse_rule
from mecheck.runtime.cache import QueryCache
from mecheck.runtime.interpreter import Interpreter

NAMES = ["bean", "beans", "property", "constructor-arg", "p:bean", "x"]
GLOBS = ["bean", "<bean>", "property", "<constructor-arg>", "nope", "*ean", "*s", "*",
         "<*>", "*-arg", "**"]

trees = st.recursive(
    st.tuples(st.sampled_from(NAMES), st.just(())),
    lambda kids: st.tuples(st.sampled_from(NAMES), st.lists(kids, max_size=4).map(tuple)),
    max_leaves=40,
)

_files = itertools.count()


def to_xml(tree):
    name, kids = tree
    if not kids:
        return f"<{name}/>"
    return f"<{name}>" + "".join(map(to_xml, kids)) + f"</{name}>\n"


def subtree(elem):
    yield elem
    for child in elem.children:
        yield from subtree(child)


def reference_scope(node):
    if isinstance(node, XmlFile):
        return list(subtree(node.root))
    return [e for child in node.children for e in subtree(child)]


def reference_match(glob, name):
    if glob.startswith("<") and glob.endswith(">"):
        glob = glob[1:-1]
    return re.fullmatch(".*".join(map(re.escape, glob.split("*"))), name) is not None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trees)
def test_scopes_match_the_reference_walk(tmp_path_factory, tree):
    path = tmp_path_factory.getbasetemp() / f"scope{next(_files)}.xml"
    path.write_text(to_xml(tree))
    doc = parse_xml(path, path.name)
    call = Registry().call
    for node in [doc, *subtree(doc.root)]:
        scope = reference_scope(node)
        for glob in GLOBS:
            expected = [e for e in scope if reference_match(glob, e.name)]
            assert call("getElms", [node, glob], None) == expected
            assert call("elementExists", [node, glob], None) is bool(expected)


def test_glob_memo_stays_bounded_when_rules_build_patterns(tmp_path):
    count = builtins.GLOB_MEMO_SIZE + 300
    elems = "".join(f'<e k="{k}" a{k}="v"/>' for k in range(count))
    (tmp_path / "many.xml").write_text(f"<r>{elems}<x7/></r>")
    model = build_model(tmp_path)
    rule = parse_rule("""\
Rule made-globs {
  for (file xml in getXMLs()) {
    for (<e> el in getElms(xml, "<e>")) {
      assert (NOT elementExists(xml, join("<x", getAttr(el, "k"), ">"))) {
        msg("x%s is there", getAttr(el, "k"));
      }
      assert (NOT isEmpty(getAttrs(el, join("*", getAttr(el, "k"))))) {
        msg("no attribute ends in %s", getAttr(el, "k"));
      }
    }
  }
}
""")
    for cache in (QueryCache(), None):
        reports = Interpreter(model, cache=cache).run_rule(rule)
        assert [r.message for r in reports] == ["x7 is there"]
        for memo in (builtins._element_matcher, builtins._glob_matcher):
            info = memo.cache_info()
            assert info.maxsize == builtins.GLOB_MEMO_SIZE
            assert info.currsize <= builtins.GLOB_MEMO_SIZE
            assert info.misses > builtins.GLOB_MEMO_SIZE
