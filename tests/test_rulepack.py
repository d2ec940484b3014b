import pytest

from mecheck.rulepack import RulePackError, default_rules_dir, load_rulepack

GOOD_RULE = 'Rule probe-%s {\n  assert (isEmpty("")) { msg("never"); }\n}\n'


def write_rules(tmp_path, files):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    return tmp_path


def test_default_pack_loads_15_rules():
    rules = load_rulepack(default_rules_dir()).rules
    assert len(rules) == 15
    prefixes = [r.name.split("-")[0] for r in rules]
    assert prefixes == [f"r{i}" for i in range(1, 16)]


def test_rules_load_in_sorted_filename_order(tmp_path):
    write_rules(
        tmp_path,
        {
            "b.rsl": GOOD_RULE % "bee",
            "a.rsl": GOOD_RULE % "ay",
            "c.rsl": GOOD_RULE % "sea",
        },
    )
    rules = load_rulepack(tmp_path).rules
    assert [r.name for r in rules] == ["probe-ay", "probe-bee", "probe-sea"]


def test_non_rsl_files_ignored(tmp_path):
    write_rules(tmp_path, {"a.rsl": GOOD_RULE % "only", "notes.txt": "not a rule"})
    rules = load_rulepack(tmp_path).rules
    assert [r.name for r in rules] == ["probe-only"]


def test_missing_directory(tmp_path):
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path / "nope")
    assert "not a directory" in str(err.value)


def test_empty_directory(tmp_path):
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert "no .rsl files" in str(err.value)


def test_syntax_error_names_the_file(tmp_path):
    write_rules(tmp_path, {"bad.rsl": "Rule broken {", "good.rsl": GOOD_RULE % "fine"})
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert err.value.path == "bad.rsl"


def test_validation_error_stops_the_load(tmp_path):
    write_rules(
        tmp_path,
        {"undef.rsl": 'Rule uses-ghost {\n  assert (isEmpty(ghost)) { msg("x"); }\n}\n'},
    )
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert err.value.path == "undef.rsl"
    assert "ghost" in err.value.detail


def test_unknown_builtin_stops_the_load(tmp_path):
    write_rules(
        tmp_path,
        {"fn.rsl": 'Rule bad-call {\n  assert (isEmptee("")) { msg("x"); }\n}\n'},
    )
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert "isEmptee" in err.value.detail


def test_duplicate_rule_names_rejected(tmp_path):
    write_rules(tmp_path, {"one.rsl": GOOD_RULE % "same", "two.rsl": GOOD_RULE % "same"})
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert err.value.path == "two.rsl"
    assert "probe-same" in err.value.detail
    assert "one.rsl" in err.value.detail


GHOST_RULE = 'Rule uses-ghost {\n  assert (isEmpty(ghost)) { msg("x"); }\n}\n'


@pytest.mark.parametrize("later, detail", [
    ("Rule broken {", "expected"),
    (GOOD_RULE % "same", "duplicate rule name probe-same"),
])
def test_a_later_syntax_error_or_duplicate_stops_the_load_before_validation(tmp_path, later,
                                                                            detail):
    # every file is parsed and named before the pack is written, which validates it
    write_rules(tmp_path, {"a.rsl": GOOD_RULE % "same", "b.rsl": GHOST_RULE, "c.rsl": later})
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert err.value.path == "c.rsl"
    assert detail in err.value.detail


def test_non_utf8_rule_file_rejected(tmp_path):
    (tmp_path / "bin.rsl").write_bytes(b"Rule x { \xff }")
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert err.value.path == "bin.rsl"


def test_arity_mismatch_in_msg_rejected(tmp_path):
    write_rules(
        tmp_path,
        {"m.rsl": 'Rule short-msg {\n  assert (isEmpty("")) { msg("%s and %s", "one"); }\n}\n'},
    )
    with pytest.raises(RulePackError) as err:
        load_rulepack(tmp_path)
    assert err.value.path == "m.rsl"
