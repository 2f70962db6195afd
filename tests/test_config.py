"""Config layering, coercion, and validation tests."""

import pytest

from qlatent.config import (
    Field,
    load_config_file,
    parse_bool,
    parse_overrides,
    render_resolved,
    resolve,
)

SCHEMA = [
    Field("epochs", int, 2),
    Field("learning_rate", float, 1e-3),
    Field("quantum", bool, False),
    Field("kind", str, "ESE2", choices=("SE", "ESE1", "ESE2")),
]


def test_flat_ini_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("# comment\nepochs = 5\nlearning_rate=0.01\n")
    assert load_config_file(path) == {
        "epochs": "5", "learning_rate": "0.01"}


@pytest.mark.parametrize("text", [
    "[model]\nwidth = 32\n", "[top]\nepochs = 3\n",
    "epochs = 3\n[train]\nepochs = 4\n", "  [DEFAULT]\nepochs = 3\n"],
    ids=["named", "top", "after-keys", "indented-default"])
def test_section_header_rejected(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match="section header") as info:
        load_config_file(path)
    assert str(path) in str(info.value)


def test_bad_ini_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[broken\nepochs = 1\n")
    with pytest.raises(ValueError, match="bad config file"):
        load_config_file(path)


def test_parse_errors_name_the_files_own_lines(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("epochs = 1\nlayers\nquantum = true\n")
    with pytest.raises(ValueError, match=r"line 2: 'layers") as info:
        load_config_file(path)
    assert "line 3" not in str(info.value)
    path.write_text("epochs = 1\n# again below\nepochs = 2\n")
    with pytest.raises(ValueError, match=r"line 3 sets 'epochs' again"):
        load_config_file(path)


def test_parse_overrides():
    assert parse_overrides(["a=1", "b = two "]) == {"a": "1", "b": "two"}
    with pytest.raises(ValueError, match="key=value"):
        parse_overrides(["novalue"])
    with pytest.raises(ValueError, match="key=value"):
        parse_overrides(["=5"])


def test_parse_bool_words():
    for text in ("true", "YES", "1", "On"):
        assert parse_bool(text) is True
    for text in ("false", "no", "0", "OFF"):
        assert parse_bool(text) is False
    with pytest.raises(ValueError, match="boolean"):
        parse_bool("maybe")


def test_resolve_layering_and_types():
    resolved = resolve(SCHEMA, {"epochs": "7", "quantum": "yes"},
                       {"epochs": "9"})
    assert resolved == {"epochs": 9, "learning_rate": 1e-3,
                        "quantum": True, "kind": "ESE2"}


def test_resolve_unknown_key_lists_known():
    with pytest.raises(ValueError, match="unknown config key 'epchs'"):
        resolve(SCHEMA, {"epchs": "7"}, {})
    with pytest.raises(ValueError, match="learning_rate"):
        resolve(SCHEMA, {"epchs": "7"}, {})


def test_resolve_choice_and_type_errors():
    with pytest.raises(ValueError, match="kind"):
        resolve(SCHEMA, {}, {"kind": "FOO"})
    with pytest.raises(ValueError, match="expected int"):
        resolve(SCHEMA, {"epochs": "2.5"}, {})


def test_render_resolved_sorted():
    text = render_resolved({"b": 2, "a": True, "c": "x"})
    assert text == "a = True\nb = 2\nc = x\n"
