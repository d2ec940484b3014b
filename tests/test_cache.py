import pytest

from mecheck.model.project import build_model
from mecheck.runtime.cache import QueryCache, canonical_key
from mecheck.runtime.values import MISSING

PROJECT = {
    "a.xml": '<beans>\n  <bean id="one"/>\n  <bean id="two"/>\n</beans>\n',
    "b.xml": '<beans>\n  <bean id="one"/>\n</beans>\n',
    "src/p/C.java": """\
package p;

public class C {
    private int n;

    public C() { }

    public C(int n) {
        this.n = n;
    }

    public void go(String s) {
        x.getBean("one");
        x.getBean("one");
    }

    public void go(int k) { }
}
""",
}


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("cache-proj")
    for rel, content in PROJECT.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return build_model(root)


def test_scalar_keys_distinguish_kinds():
    # True == 1 == 1.0 in a dict, so numbers and bools carry their type
    keys = {canonical_key("f", [v]) for v in (True, 1, 1.0, "1")}
    assert len(keys) == 4
    assert canonical_key("f", [MISSING]) == ("f", MISSING)
    assert canonical_key("f", ["a"]) == ("f", "a")
    assert canonical_key("f", [[1]]) != canonical_key("f", [[True]])
    assert canonical_key("f", [["a"]]) != canonical_key("f", ["a"])
    assert canonical_key("f", [[1, "a"]]) == canonical_key("f", [[1, "a"]])
    assert canonical_key("f", [[]]) != canonical_key("f", [[[]]])


def all_items(model):
    items = list(model.xml_files)
    for xf in model.xml_files:
        items.extend(xf.iter_elements())
    for cls in model.classes:
        members = cls.members()
        items.append(cls)
        items.extend(members.fields + members.methods + members.constructors)
    items.extend(model.call_sites("getBean"))
    return items


def test_item_keys_are_stable_identities(model):
    items = all_items(model)
    keys = [canonical_key("f", [item]) for item in items]
    # two distinct items never share a key, though some look alike:
    # same-id beans in two files, overloads, two identical call sites
    assert len(set(keys)) == len(items)
    # the same item always gives the same key
    assert keys == [canonical_key("f", [item]) for item in items]
    # lists of distinct items get distinct keys too
    assert len({canonical_key("f", [[item]]) for item in items}) == len(items)


def test_canonical_key_prefixes_function_name(model):
    cls = model.class_by_fqn["p.C"]
    key = canonical_key("getMethods", [cls])
    assert key == ("getMethods", cls)
    assert canonical_key("getFields", [cls]) != key


def test_get_or_compute_counts_hits_and_misses():
    cache = QueryCache()
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute(("k",), compute) == "value"
    assert cache.get_or_compute(("k",), compute) == "value"
    assert cache.get_or_compute(("k",), compute) == "value"
    assert len(calls) == 1
    assert cache.stats() == {"hits": 2, "misses": 1, "entries": 1}


def test_compute_receives_the_arguments():
    cache = QueryCache()
    calls = []

    def compute(*args):
        calls.append(args)
        return len(args)

    assert cache.get_or_compute(("k",), compute, "a", 2) == 2
    assert cache.get_or_compute(("k",), compute, "a", 2) == 2
    assert calls == [("a", 2)]


def test_distinct_keys_compute_separately():
    cache = QueryCache()
    assert cache.get_or_compute(("a",), lambda: 1) == 1
    assert cache.get_or_compute(("b",), lambda: 2) == 2
    assert cache.stats() == {"hits": 0, "misses": 2, "entries": 2}


def test_cached_none_is_a_hit():
    cache = QueryCache()
    calls = []

    def compute():
        calls.append(1)
        return None

    assert cache.get_or_compute(("k",), compute) is None
    assert cache.get_or_compute(("k",), compute) is None
    assert len(calls) == 1
    assert cache.stats()["hits"] == 1


def test_caches_are_independent():
    one = QueryCache()
    two = QueryCache()
    one.get_or_compute(("k",), lambda: "a")
    assert two.stats() == {"hits": 0, "misses": 0, "entries": 0}
    assert two.get_or_compute(("k",), lambda: "b") == "b"
