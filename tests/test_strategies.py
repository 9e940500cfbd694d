"""Strategy families: determinism, hold-witness contract, grim triggers."""

import random
from fractions import Fraction

import pytest

from totime import timeorder as to
from totime.errors import (
    ActionNotInAlphabetError,
    BadParametersError,
    MissingEntryError,
    UnknownNameError,
)
from totime.histories import (
    HistoryPrefix,
    PiecewiseHistory,
    _append_piece,
    empty_prefix,
    prefix,
)
from totime.solver import seq_to_prefix
from totime.strategies import (
    encode_chain_prefix,
    make_constant,
    make_gallery,
    make_grim_trigger,
    make_halving_hold,
    make_random_table,
    make_scripted,
    make_table,
)
from totime.timeorder import DenseInterval, FiniteChain, Interval

UNIT = DenseInterval(0, 1)
CHAIN = FiniteChain(4)


def constant_prefix(domain, players, cut, actions, include=False):
    per = []
    for a in actions:
        if to.is_chain(domain):
            lo = domain.min
            hi = cut if include else cut - 1
            per.append(() if hi < lo else ((Interval(lo, hi), a),))
        else:
            lo = domain.min
            if cut == lo and not include:
                per.append(())
            else:
                per.append(((Interval(lo, cut, True, include), a),))
    return HistoryPrefix(domain, cut, tuple(players), tuple(per), include)


def test_constant_strategy():
    s = make_constant("p1", "C", ("C", "D"), UNIT)
    r = s.respond(Fraction(1, 3), constant_prefix(UNIT, ["p1"], Fraction(1, 3), ["C"]))
    assert r.action == "C" and r.hold_until == 1
    with pytest.raises(ActionNotInAlphabetError):
        make_constant("p1", "X", ("C", "D"), UNIT)


def test_grim_parameter_validation():
    with pytest.raises(BadParametersError):
        make_grim_trigger("p1", "C", "D", Fraction(-1), ("C", "D"), UNIT)
    with pytest.raises(ActionNotInAlphabetError):
        make_grim_trigger("p1", "C", "X", Fraction(1, 4), ("C", "D"), UNIT)
    with pytest.raises(BadParametersError):
        make_grim_trigger("p1", "C", "D", Fraction(1, 2), ("C", "D"), CHAIN)


def test_grim_reacts_after_delta():
    delta = Fraction(1, 4)
    s = make_grim_trigger("p1", "C", "D", delta, ("C", "D"), UNIT)
    half = Fraction(1, 2)
    # opponent defects on [1/2, 5/8); punishment starts at 1/2 + 1/4
    pieces_own = [(Interval(0, Fraction(3, 4), True, False), "C")]
    pieces_opp = [(Interval(0, half, True, False), "C"),
                  (Interval(half, Fraction(5, 8), True, False), "D"),
                  (Interval(Fraction(5, 8), Fraction(3, 4), True, False), "C")]
    p = HistoryPrefix(UNIT, Fraction(3, 4), ("p1", "p2"),
                      (tuple(pieces_own), tuple(pieces_opp)))
    r = s.respond(Fraction(3, 4), p)
    assert r.action == "D" and r.hold_until == 1
    # just before the lag elapses the response is still cooperative
    p2 = HistoryPrefix(UNIT, Fraction(5, 8), ("p1", "p2"),
                       (((Interval(0, Fraction(5, 8), True, False), "C"),),
                        (tuple(pieces_opp[:2]))))
    r2 = s.respond(Fraction(5, 8), p2)
    assert r2.action == "C" and r2.hold_until == Fraction(3, 4)


def test_grim_custom_triggers():
    s = make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D", "E"), UNIT,
                          trigger_actions=["E"])
    p = HistoryPrefix(UNIT, Fraction(1, 2), ("p1", "p2"),
                      (((Interval(0, Fraction(1, 2), True, False), "C"),),
                       ((Interval(0, Fraction(1, 2), True, False), "D"),)))
    assert s.respond(Fraction(1, 2), p).action == "C"  # D is not a trigger here


def chain_pick(strategy, seq, domain=CHAIN):
    """The strategy's action after the action tuples seq, asked on a library prefix."""
    players = tuple(f"p{i + 1}" for i in range(len(seq[0]) if seq else 1))
    return strategy.respond(len(seq), seq_to_prefix(domain, players, seq, len(seq))).action


def test_table_strategy_and_missing_entry():
    table = {(0, ()): "1", (1, (("1",),)): "0"}
    s = make_table("p1", FiniteChain(2), table)
    assert chain_pick(s, ()) == "1"
    assert chain_pick(s, (("1",),)) == "0"
    with pytest.raises(MissingEntryError) as err:
        chain_pick(s, (("0",),))
    assert str(err.value) == "table of p1 missing entry for (1, (('0',),))"


def test_random_table_is_deterministic_and_seed_sensitive():
    a = make_random_table("p1", CHAIN, ("x", "y", "z"), seed=42)
    b = make_random_table("p1", CHAIN, ("x", "y", "z"), seed=42)
    c = make_random_table("p1", CHAIN, ("x", "y", "z"), seed=43)
    seqs = [(), (("x",),), (("y",), ("z",))]
    picks_a = [chain_pick(a, s) for s in seqs]
    picks_b = [chain_pick(b, s) for s in seqs]
    picks_c = [chain_pick(c, s) for s in seqs]
    assert picks_a == picks_b
    assert picks_a != picks_c
    assert all(x in ("x", "y", "z") for x in picks_a)


@pytest.mark.parametrize("make", [
    lambda domain: make_table("p1", domain, {(0, ()): "x"}),
    lambda domain: make_random_table("p1", domain, ("x", "y"), seed=0),
], ids=["table", "random_table"])
def test_table_strategies_require_a_finite_chain(make):
    assert make(CHAIN).player == "p1"
    with pytest.raises(BadParametersError, match="finite chain"):
        make(DenseInterval(0, 1))


def test_encode_chain_prefix():
    h = PiecewiseHistory.build(FiniteChain(3), ("p1", "p2"), {
        "p1": [(Interval(0, 2), "a")],
        "p2": [(Interval(0, 0), "b"), (Interval(1, 2), "c")],
    })
    assert encode_chain_prefix(prefix(h, 2)) == (("a", "b"), ("a", "c"))


def test_scripted_right_limit_queries():
    half = Fraction(1, 2)
    pieces = [(Interval(0, half, True, False), "C"),
              (Interval(half, half), "D"),
              (Interval(half, 1, False, True), "C")]
    s = make_scripted("p1", UNIT, pieces)
    p_strict = constant_prefix(UNIT, ["p1"], half, ["C"])
    r = s.respond(half, p_strict)
    assert r.action == "D" and r.hold_until == half  # instantaneous
    p_closed = HistoryPrefix(UNIT, half, ("p1",),
                             ((pieces[0], pieces[1]),), cut_included=True)
    r2 = s.respond(half, p_closed)
    assert r2.action == "C" and r2.hold_until == 1


def test_gallery_rules():
    nt = make_gallery("no_trace", Fraction(1))
    assert nt.black_box and nt.respond(0, empty_prefix(UNIT, ("p1",))).action == "0"
    p = constant_prefix(UNIT, ["p1"], Fraction(1, 4), ["0"])
    assert nt.respond(Fraction(1, 4), p).action == "1"
    p1 = constant_prefix(UNIT, ["p1"], Fraction(1, 4), ["1"])
    assert nt.respond(Fraction(1, 4), p1).action == "0"
    mu = make_gallery("multi", Fraction(1))
    assert mu.respond(Fraction(1, 4), p).action == "0"
    assert mu.respond(Fraction(1, 4), p1).action == "1"
    with pytest.raises(UnknownNameError):
        make_gallery("nope", Fraction(1))


def test_halving_hold_shrinks():
    s = make_halving_hold("p1", ("0", "1"), UNIT)
    r = s.respond(Fraction(0), empty_prefix(UNIT, ("p1",)))
    assert r.hold_until == Fraction(1, 2)
    p = constant_prefix(UNIT, ["p1"], Fraction(1, 2), ["0"])
    assert s.respond(Fraction(1, 2), p).hold_until == Fraction(3, 4)


HOLD_SAMPLES = 16


def assert_hold_contract(strategy, players, t, pfx, denom=64):
    """The returned action must survive constant re-query on [t, hold)."""
    r = strategy.respond(t, pfx)
    if r.hold_until is None or r.hold_until <= t:
        return
    domain = pfx.domain
    base = strategy.respond(t, pfx)
    for k in range(1, HOLD_SAMPLES + 1):
        s = t + (r.hold_until - t) * Fraction(k, HOLD_SAMPLES + 1)
        per = []
        for i, p in enumerate(players):
            pp = list(pfx.per_player[i])
            _append_piece(domain, pp, Interval(t, s, True, False),
                          base.action if p == strategy.player
                          else pfx_last_action(pfx, i, strategy, base))
            per.append(tuple(pp))
        q = HistoryPrefix(domain, s, tuple(players), tuple(per), False)
        assert strategy.respond(s, q).action == base.action


def pfx_last_action(pfx, i, strategy, base):
    # extend opponents with whatever they last played (constant extension)
    pieces = pfx.per_player[i]
    return pieces[-1][1] if pieces else base.action


def test_hold_contract_for_structured_families():
    rng = random.Random(11)
    half = Fraction(1, 2)
    strategies = [
        make_constant("p1", "C", ("C", "D"), UNIT),
        make_grim_trigger("p1", "C", "D", Fraction(1, 4), ("C", "D"), UNIT),
        make_halving_hold("p1", ("0",), UNIT),
    ]
    prefixes = {
        "C": [empty_prefix(UNIT, ("p1", "p2")),
              constant_prefix(UNIT, ["p1", "p2"], half, ["C", "C"]),
              constant_prefix(UNIT, ["p1", "p2"], half, ["C", "D"])],
        "0": [empty_prefix(UNIT, ("p1", "p2")),
              constant_prefix(UNIT, ["p1", "p2"], half, ["0", "0"])],
    }
    for s in strategies:
        key = "0" if "halving" in s.name else "C"
        for pfx in prefixes[key]:
            assert_hold_contract(s, pfx.players, pfx.cut, pfx)


def test_seq_to_prefix_matches_encode():
    seq = (("a", "b"), ("a", "c"))
    p = seq_to_prefix(FiniteChain(3), ("p1", "p2"), seq, 2)
    assert encode_chain_prefix(p) == seq
