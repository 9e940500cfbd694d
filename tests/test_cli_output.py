"""The CLI's output format: every document is `json.dumps(obj, indent=2)`
byte for byte, written by `cli._dumps` without json's pure-Python encoder,
and `solve --out` to a path that cannot be written prints nothing on stdout
in every outcome, while a solve that is not unique leaves the file empty."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import cli
from totime.gallery import GALLERY

CHAIN_SPEC = {
    "domain": {"kind": "chain", "size": 6},
    "players": [{"id": "p1", "actions": ["C", "D"]},
                {"id": "p2", "actions": ["C", "D"]}],
    "strategies": [{"kind": "table", "player": "p1", "seed": 1},
                   {"kind": "grim", "player": "p2", "cooperate": "C",
                    "punish": "D", "delta": "1"}],
    "payoff": {"rho": "1/2", "table": {"C,C": "1", "C,D": "-1/3", "D,C": "2", "D,D": "0"}},
}

# a player and actions with quotes, backslashes, a line separator and
# characters outside ASCII and outside the basic plane
UNICODE_SPEC = {
    "domain": {"kind": "chain", "size": 3},
    "players": [{"id": "j\u00f6ga\u2028", "actions": ["C\"", "D\\\u00e9\U0001f600"]}],
    "strategies": [{"kind": "constant", "player": "j\u00f6ga\u2028",
                    "action": "D\\\u00e9\U0001f600"}],
    "payoff": {"rho": "1/2", "table": {"C\"": "1", "D\\\u00e9\U0001f600": "2"}},
}

DENSE_SPEC = {
    "domain": {"kind": "dense", "lo": "-1", "hi": "2"},
    "players": [{"id": "p1", "actions": ["C", "D"]},
                {"id": "p2", "actions": ["C", "D"]}],
    "strategies": [{"kind": "grim", "player": "p1", "cooperate": "C",
                    "punish": "D", "delta": "1/8"},
                   {"kind": "constant", "player": "p2", "action": "D"}],
    "payoff": {"rho": "1/2", "table": {"C,C": "1", "C,D": "-1/3", "D,C": "2", "D,D": "0"}},
}

# the halving's limit certificate stops the solve as zeno (exit 4)
HALVING_SPEC = {
    "domain": {"kind": "dense", "lo": "-1", "hi": "2"},
    "players": [{"id": "p1", "actions": ["C", "D"]},
                {"id": "p2", "actions": ["C", "D"]}],
    "strategies": [{"kind": "halving", "player": "p1", "cycle": ["C", "D"]},
                   {"kind": "constant", "player": "p2", "action": "C"}],
}

PARTITION = {"domain": {"kind": "chain", "size": 6}, "start": 0,
             "blocks": [{"lo": "0", "hi": "2"}, {"lo": "3", "hi": "5"}]}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# -- the writer ---------------------------------------------------------------

strings = st.text(
    st.characters()  # the whole of Unicode but surrogates
    | st.characters(categories=["Cs"])  # lone surrogates
    | st.characters(max_codepoint=0x1f)  # control characters
    | st.sampled_from(['"', "\\", "/", "\x7f", "\u2028", "\u2029"]))
scalars = (st.none() | st.booleans() | strings
           | st.integers(min_value=-(10**80), max_value=10**80))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(strings, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_writer_equals_json_dumps_with_indent_2(v):
    assert cli._dumps(v) == json.dumps(v, indent=2)


@pytest.mark.parametrize("v", [{}, [], (), "", 0, -1, 2**200, -(2**200), True,
                               False, None, [[], {}, [()]], {"a": {"b": []}}],
                         ids=lambda v: repr(v)[:24])
def test_writer_equals_json_dumps_on_edge_values(v):
    assert cli._dumps(v) == json.dumps(v, indent=2)


@pytest.mark.parametrize("v, name", [
    (0.5, "float"), (Fraction(1, 2), "Fraction"), ({1: "a"}, "int"),
    ({None: "a"}, "NoneType"), ([{"a": [1.0]}], "float"), ({"a", "b"}, "set"),
])
def test_writer_refuses_other_types(v, name):
    with pytest.raises(TypeError, match=name):
        cli._dumps(v)


def test_commands_do_not_use_jsons_pure_python_encoder(tmp_path, capsys, monkeypatch):
    """json.dump and json.dumps(indent=...) build their encoder with
    json.encoder._make_iterencode; the CLI's documents never do."""
    spec = write_json(tmp_path / "spec.json", CHAIN_SPEC)
    out = tmp_path / "h.json"

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": 1}, indent=2)
    for name in GALLERY:
        code, stdout, err = run(capsys, ["gallery", name])
        assert code == 0 and stdout.startswith("{\n") and err == "", name
    code, stdout, err = run(capsys, ["solve", spec, "--out", str(out),
                                     "--trace", str(tmp_path / "t.jsonl")])
    assert code == 0 and err == ""
    monkeypatch.undo()
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"
    assert out.read_text() == json.dumps(json.loads(out.read_text()), indent=2)


# -- every command ------------------------------------------------------------


def assert_indented(stdout):
    # json.dumps escapes every character outside ASCII
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


@pytest.mark.parametrize("doc", [CHAIN_SPEC, UNICODE_SPEC, DENSE_SPEC],
                         ids=["chain", "unicode", "dense"])
def test_every_spec_command_prints_indented_json(doc, tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", doc)
    hist = tmp_path / "h.json"
    argvs = [["solve", spec, "--out", str(hist)], ["check", spec],
             ["payoff", spec, str(hist), "--tol", "1e-20"], ["spec", spec]]
    if doc["domain"]["kind"] == "chain":
        argvs.append(["oracle", spec])
    for argv in argvs:
        code, stdout, _ = run(capsys, argv)
        assert code in (0, 1, 2), argv  # check may fail or be inconclusive
        assert_indented(stdout)
        if argv[0] == "solve":
            text = hist.read_text()
            assert text == json.dumps(json.loads(text), indent=2)  # no newline
            assert json.loads(text) == json.loads(stdout)["history"]


def test_gallery_and_meet_print_indented_json(tmp_path, capsys):
    part = write_json(tmp_path / "part.json", PARTITION)
    for argv in [["meet", part, part]] + [["gallery", name] for name in GALLERY]:
        code, stdout, _ = run(capsys, argv)
        assert code == 0, argv
        assert_indented(stdout)


# -- solve --out to a path that cannot be written -----------------------------


def unwritable_out(where, doc, tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", doc)
    out = tmp_path / "nowhere" / "h.json" if where == "missing" else tmp_path
    code, stdout, err = run(capsys, ["solve", spec, "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_prints_nothing_on_stdout(where, tmp_path, capsys):
    unwritable_out(where, CHAIN_SPEC, tmp_path, capsys)


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_an_error_when_the_solve_is_not_unique(where, tmp_path, capsys):
    unwritable_out(where, HALVING_SPEC, tmp_path, capsys)


def test_a_solve_that_is_not_unique_empties_a_stale_out_file(tmp_path, capsys):
    """A history left by an earlier run must not survive for `payoff` to read."""
    out = tmp_path / "stale.json"
    out.write_text('{"p1": []}')
    spec = write_json(tmp_path / "spec.json", HALVING_SPEC)
    code, stdout, err = run(capsys, ["solve", spec, "--out", str(out)])
    assert code == 4
    assert json.loads(stdout)["outcome"] == "zeno"
    assert out.read_text() == ""
