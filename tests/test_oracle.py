"""The forward enumeration oracle against the product loop it replaced.

`old_oracle_enumerate` is `solver.oracle_enumerate` as it was before the
search went forward in time: it runs every candidate of the alphabet
product through the pointwise consistency filter, with a memo of forced
tuples.  It stays here as the oracle of the differential test, which
asserts the same count and the same histories in the same order.  The
guard runs a space of 4^11 candidates under a time cap that the product
loop cannot meet, and the CLI tests keep the space check from building
or printing a huge power.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totime import cli
from totime import timeorder as to
from totime.errors import SearchSpaceTooLargeError
from totime.gamespec import MAX_CHAIN_SIZE
from totime.histories import PiecewiseHistory, empty_prefix, prefix, splice
from totime.solver import oracle_enumerate, seq_to_prefix, solve_chain
from totime.strategies import (
    Response,
    Strategy,
    encode_chain_prefix,
    make_constant,
    make_grim_trigger,
    make_random_table,
    make_scripted,
)
from totime.timeorder import FiniteChain


def old_oracle_enumerate(profile, pfx, alphabets, limit=10**7):
    """The product-loop oracle (with its space check), kept as the reference."""
    domain = pfx.domain
    players = pfx.players
    if not to.is_chain(domain):
        raise SearchSpaceTooLargeError("oracle enumeration requires a finite chain")
    t0 = pfx.cut
    n_times = domain.size - t0
    tuples = list(itertools.product(*[alphabets[p] for p in players]))
    space = len(tuples) ** n_times
    if space > limit:
        raise SearchSpaceTooLargeError(f"search space {space} exceeds limit {limit}")
    base = tuple(encode_chain_prefix(pfx))
    memo: dict = {}

    def forced(s, seq):
        # every prefix is rebuilt afresh, independent of the engine's snapshots
        key = (s, seq)
        v = memo.get(key)
        if v is None:
            p = seq_to_prefix(domain, players, seq, s)
            v = tuple(strategy.respond(s, p).action for strategy in profile)
            memo[key] = v
        return v

    survivors = []
    for combo in itertools.product(tuples, repeat=n_times):
        seq = base
        ok = True
        for k in range(n_times):
            if combo[k] != forced(t0 + k, seq):
                ok = False
                break
            seq = seq + (combo[k],)
        if ok:
            survivors.append(combo)
    histories = []
    for combo in survivors:
        tails = {
            p: [(to.singleton(t0 + k), combo[k][i]) for k in range(n_times)]
            for i, p in enumerate(players)
        }
        histories.append(splice(pfx, tails))
    return histories


# -- generated chain games ------------------------------------------------------


def rule_strategy(player, alphabet, salt):
    """A strategy that reads the whole visible prefix as action tuples."""

    def respond(t, p):
        seen = sum(a == alphabet[0] for tup in encode_chain_prefix(p) for a in tup)
        return Response(alphabet[(salt + t + seen) % len(alphabet)], None)

    return Strategy(player, respond, name="rule")


def stray_strategy(player, alphabet, at):
    """Plays inside its alphabet except at time `at`, where it answers 'z'."""

    def respond(t, p):
        return Response("z" if t == at else alphabet[0], None)

    return Strategy(player, respond, name="stray")


@st.composite
def chain_games(draw):
    n = draw(st.integers(1, 6))
    domain = FiniteChain(n)
    players = tuple(f"p{i + 1}" for i in range(draw(st.integers(1, 3))))
    alphabets = {p: ("a", "b", "c")[:draw(st.integers(1, 3))] for p in players}
    stray_at = None
    profile = []
    for i, p in enumerate(players):
        alpha = alphabets[p]
        kind = draw(st.sampled_from(
            ["constant", "grim", "table", "scripted", "rule", "stray"]))
        if kind == "grim" and len(alpha) > 1:
            profile.append(make_grim_trigger(p, alpha[0], alpha[1],
                                             draw(st.integers(1, 3)), alpha, domain))
        elif kind == "table":
            profile.append(make_random_table(p, domain, alpha, draw(st.integers(0, 99))))
        elif kind == "scripted":
            script = [(to.singleton(t), draw(st.sampled_from(alpha))) for t in range(n)]
            profile.append(make_scripted(p, domain, script))
        elif kind == "rule":
            profile.append(rule_strategy(p, alpha, draw(st.integers(0, 5))))
        elif kind == "stray":
            stray_at = draw(st.integers(0, n - 1))
            profile.append(stray_strategy(p, alpha, stray_at))
        else:
            profile.append(make_constant(p, draw(st.sampled_from(alpha)), alpha, domain))
    cut = draw(st.integers(0, n - 1))
    past = PiecewiseHistory.build(domain, players, {
        p: [(to.singleton(t), draw(st.sampled_from(alphabets[p]))) for t in range(n)]
        for p in players
    })
    pfx = prefix(past, cut)
    limit = draw(st.sampled_from([0, 1, 26, 27, 28, 700] + [5000] * 6))
    return profile, pfx, alphabets, limit, stray_at


@settings(max_examples=300, deadline=None)
@given(chain_games())
def test_forward_oracle_matches_the_product_loop(game):
    profile, pfx, alphabets, limit, stray_at = game
    try:
        want = old_oracle_enumerate(profile, pfx, alphabets, limit)
    except SearchSpaceTooLargeError:
        with pytest.raises(SearchSpaceTooLargeError):
            oracle_enumerate(profile, pfx, alphabets, limit)
        return
    result = oracle_enumerate(profile, pfx, alphabets, limit)
    assert result.histories == want  # same histories in the same order
    assert result.count == len(want)
    if stray_at is not None and stray_at >= pfx.cut:
        assert result.count == 0  # the forced path leaves the alphabet
    elif stray_at is None:
        assert result.histories == [solve_chain(profile, pfx).history]


def test_repeated_actions_keep_the_product_order():
    # library callers may repeat an action: each copy is its own candidate
    domain = FiniteChain(3)
    players = ("p1", "p2")
    alphabets = {"p1": ("a", "b", "a"), "p2": ("b", "b")}
    profile = [make_random_table("p1", domain, ("a", "b"), 0),
               make_constant("p2", "b", ("b",), domain)]
    pfx = empty_prefix(domain, players)
    result = oracle_enumerate(profile, pfx, alphabets)
    assert result.histories == old_oracle_enumerate(profile, pfx, alphabets)
    assert result.count >= 2 ** 3  # every time matches both copies of "b"


def test_every_chain_entry_point_refuses_an_including_prefix():
    """A prefix that includes its cut is refused by the chain walk itself,
    with one error for the solver and the oracle, before any query."""
    domain, players = FiniteChain(4), ("p1",)
    asked = []

    def respond(t, p):
        asked.append(t)
        return Response("a", None)

    profile = [Strategy("p1", respond, name="recording")]
    h = solve_chain(profile, empty_prefix(domain, players)).history
    pfx = prefix(h, 1, include=True)
    asked.clear()
    errors = []
    for run in (lambda: solve_chain(profile, pfx),
                lambda: oracle_enumerate(profile, pfx, {"p1": ("a",)})):
        with pytest.raises(ValueError) as e:
            run()
        errors.append(str(e.value))
    assert errors == ["a chain walk starts from a strict prefix"] * 2
    assert asked == []


def test_space_check_is_exact_at_the_limit():
    domain = FiniteChain(3)
    profile = [make_constant("p1", "a", ("a", "b"), domain)]
    pfx = empty_prefix(domain, ("p1",))
    assert oracle_enumerate(profile, pfx, {"p1": ("a", "b")}, limit=8).count == 1
    with pytest.raises(SearchSpaceTooLargeError, match=r"search space 2\^3 exceeds limit 7"):
        oracle_enumerate(profile, pfx, {"p1": ("a", "b")}, limit=7)
    # a single-action alphabet keeps the space at 1 for any length
    long = FiniteChain(5000)
    res = oracle_enumerate([make_constant("p1", "a", ("a",), long)],
                           empty_prefix(long, ("p1",)), {"p1": ("a",)}, limit=1)
    assert res.count == 1
    with pytest.raises(SearchSpaceTooLargeError, match=r"1\^5000 exceeds limit 0"):
        oracle_enumerate([make_constant("p1", "a", ("a",), long)],
                         empty_prefix(long, ("p1",)), {"p1": ("a",)}, limit=0)


# -- guards -------------------------------------------------------------------


def test_oracle_on_4_to_the_11_candidates_is_fast(within):
    # the product loop walks all 4,194,304 candidates, about 4 s
    domain = FiniteChain(11)
    players = ("p1", "p2")
    alphabets = {p: ("0", "1") for p in players}
    profile = [make_random_table(p, domain, alphabets[p], i) for i, p in enumerate(players)]
    pfx = empty_prefix(domain, players)
    result = within(2, oracle_enumerate, profile, pfx, alphabets)
    assert result.count == 1
    assert result.histories[0] == solve_chain(profile, pfx).history


def big_chain_spec(size):
    players = ("p1", "p2", "p3")
    return {
        "domain": {"kind": "chain", "size": size},
        "players": [{"id": p, "actions": ["a", "b", "c"]} for p in players],
        "strategies": [{"kind": "constant", "player": p, "action": "a"} for p in players],
    }


@pytest.mark.parametrize("size", [8000, MAX_CHAIN_SIZE, 10**7])
def test_cli_oracle_on_a_huge_space_exits_2(tmp_path, capsys, size, within):
    # 27^8000 has more digits than int-to-str allows; 27^(10^7) takes
    # seconds to compute at all, and a chain that long is refused before
    # the oracle starts
    spec_path = tmp_path / "chain.json"
    spec_path.write_text(json.dumps(big_chain_spec(size)))
    assert within(1, cli.main, ["oracle", str(spec_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: search space 27^{size} exceeds limit 10000000\n" if size <= MAX_CHAIN_SIZE
        else f"error: domain.size: chain size must be at most {MAX_CHAIN_SIZE}, got {size}\n")
