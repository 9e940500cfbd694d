"""Many `cli.main` calls in one process: one parser, and each call prints
what the same command prints in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from totime import cli
from totime.gamespec import build_profile, parse_spec
from totime.histories import empty_prefix, history_to_json
from totime.solver import solve_chain

SRC = Path(__file__).resolve().parents[1] / "src"

TABLE_SPEC = {
    "domain": {"kind": "chain", "size": 4},
    "players": [{"id": "p1", "actions": ["C", "D"]},
                {"id": "p2", "actions": ["C", "D"]}],
    "strategies": [{"kind": "table", "player": "p1", "seed": 1},
                   {"kind": "grim", "player": "p2", "cooperate": "C",
                    "punish": "D", "delta": "1"}],
    "payoff": {"rho": "1/2", "table": {"C,C": "1", "C,D": "-1/3", "D,C": "2", "D,D": "0"}},
    "seed": 5,
}

PARTITION = {"domain": {"kind": "chain", "size": 6}, "start": 0,
             "blocks": [{"lo": "0", "hi": "2"}, {"lo": "3", "hi": "5"}]}


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def commands(tmp_path):
    """(argv, TOTIME_SEED or None) for usage errors, help, input errors and
    one good run of every command."""
    spec = write(tmp_path / "spec.json", json.dumps(TABLE_SPEC))
    parsed = parse_spec(TABLE_SPEC)
    h = solve_chain(build_profile(parsed), empty_prefix(parsed.domain, parsed.players)).history
    hist = write(tmp_path / "hist.json", json.dumps(history_to_json(h)))
    bad = write(tmp_path / "bad.json", "{")
    part = write(tmp_path / "part.json", json.dumps(PARTITION))
    return [
        (["nope"], None),
        (["solve", spec, "--budget", "0"], None),
        (["check", spec, "--axioms=9"], None),
        (["payoff", spec], None),
        (["check", "-h"], None),
        (["solve", str(tmp_path / "missing.json")], None),
        (["spec", bad], None),
        (["spec", spec], None),
        (["solve", spec, "--seed", "3"], None),
        (["solve", spec], "11"),
        (["check", spec], None),
        (["oracle", spec], None),
        (["payoff", spec, hist], None),
        (["gallery", "no_trace"], None),
        (["meet", part, part], None),
    ]


def in_process(capsys, monkeypatch, argv, seed):
    if seed is None:
        monkeypatch.delenv("TOTIME_SEED", raising=False)
    else:
        monkeypatch.setenv("TOTIME_SEED", seed)
    try:
        code = cli.main(argv)
    except SystemExit as e:  # usage errors and -h
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(argv, seed):
    """(exit code, stdout, stderr) of the command run alone in
    `python -m totime.cli`."""
    env = {k: v for k, v in os.environ.items() if k != "TOTIME_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if seed is not None:
        env["TOTIME_SEED"] = seed
    done = subprocess.run([sys.executable, "-m", "totime.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_main_builds_one_parser_for_many_calls(commands, capsys, monkeypatch):
    """Building the parser (a root and 7 subparsers) took about half of a
    short in-process command."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv, seed in (commands * 2)[:20]:
        in_process(capsys, monkeypatch, argv, seed)
    # one parser is a root "totime" and its 7 subparsers
    assert built.count("totime") <= 1 and len(built) <= 8


def test_reused_parser_answers_like_a_fresh_process(commands, capsys, monkeypatch):
    fresh = [fresh_process(argv, seed) for argv, seed in commands]
    assert [code for code, _, _ in fresh] == [2, 2, 2, 2, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0]
    for order in (list(range(len(commands))), list(reversed(range(len(commands))))):
        for i in order:
            argv, seed = commands[i]
            assert in_process(capsys, monkeypatch, argv, seed) == fresh[i], argv
