"""The counterexample gallery.

Five named instances: the dense-time pathologies (no consistent history /
many consistent histories), their finite-chain analogues where uniqueness
is restored, and demonstrations of the inertiality and frictionality
restrictions.  `run_gallery` builds the instance, runs the relevant
solver and checkers, and returns a JSON-ready report bundle; every claim
in a bundle is re-validated by the axioms module rather than asserted.

The two dense rules are reconstructions of the classic continuous-time
counterexamples (the sources cite them without concrete rules), built
here to exhibit exactly the cited phenomena.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnknownNameError
from . import timeorder as to
from .axioms import (
    check_frictionality,
    check_inertiality,
    check_initial_uniqueness,
    check_traceability,
    is_consistent,
)
from .histories import PiecewiseHistory, empty_prefix, history_to_json
from .solver import oracle_enumerate, solve_chain, solve_dense, verify_unique
from .strategies import (
    Strategy,
    encode_chain_prefix,
    make_gallery,
    make_grim_trigger,
    make_scripted,
)
from .timeorder import DenseInterval, FiniteChain, Interval

GALLERY = ("no_trace", "multi", "discrete_contrast", "inertia_demo",
           "friction_demo")

UNIT = DenseInterval(0, 1)


def _chain_rule_strategy(player: str, rule) -> Strategy:
    """Single-player chain strategy from a rule over own past actions."""

    def chain_respond(t: int, seq: tuple) -> str:
        return rule([a[0] for a in seq])

    def respond(t, p):
        from .strategies import Response

        return Response(chain_respond(t, encode_chain_prefix(p)), None)

    return Strategy(player, respond, name="chain_rule",
                    chain_respond=chain_respond)


def _no_trace(seed: int) -> dict:
    strategy = make_gallery("no_trace", Fraction(1))
    h_candidate = PiecewiseHistory.build(
        UNIT, ("p1",), {"p1": [(to.full_interval(UNIT), "0")]}
    )
    report = check_traceability(strategy, Fraction(0), h_candidate, seed=seed)
    return {
        "name": "no_trace",
        "traceability": report.to_json(),
        "note": (
            "at the start the rule plays 0, immediately afterwards it must "
            "play 1 while the past is all-0, but any stretch of 1s makes the "
            "past not all-0 and flips the response back to 0: no candidate "
            "survives re-query on any right-neighbourhood of 0"
        ),
    }


def _multi(seed: int) -> dict:
    strategy = make_gallery("multi", Fraction(1))
    profile = [strategy]
    h0 = PiecewiseHistory.build(
        UNIT, ("p1",), {"p1": [(to.full_interval(UNIT), "0")]}
    )
    h1 = PiecewiseHistory.build(
        UNIT, ("p1",),
        {"p1": [(Interval(0, Fraction(1, 2)), "0"),
                (Interval(Fraction(1, 2), 1, False, True), "1")]},
    )
    c0 = is_consistent(h0, profile, seed=seed)
    c1 = is_consistent(h1, profile, seed=seed)
    a3_at_0 = check_initial_uniqueness("p1", Fraction(0), h0, h1)
    a3_at_cut = check_initial_uniqueness("p1", Fraction(1, 2), h0, h1)
    a4 = check_inertiality(strategy, Fraction(0), h0,
                           alphabets={"p1": ("0", "1")}, seed=seed)
    return {
        "name": "multi",
        "histories": [history_to_json(h0), history_to_json(h1)],
        "consistency": [c0.to_json(), c1.to_json()],
        "axiom3_at_0": a3_at_0.to_json(),
        "axiom3_at_half": a3_at_cut.to_json(),
        "axiom4_at_0": a4.to_json(),
    }


def _discrete_contrast(seed: int) -> dict:
    domain = FiniteChain(3)
    alphabets = {"p1": ("0", "1")}
    cases = []
    for label, rule, expected in (
        ("all_previous_zero",
         lambda past: "1" if all(a == "0" for a in past) else "0",
         ("1", "0", "0")),
        ("some_previous_one",
         lambda past: "1" if any(a == "1" for a in past) else "0",
         ("0", "0", "0")),
    ):
        strategy = _chain_rule_strategy("p1", rule)
        pfx = empty_prefix(domain, ("p1",))
        solved = solve_chain([strategy], pfx)
        oracle = oracle_enumerate([strategy], pfx, alphabets)
        played = tuple(solved.history.eval_player("p1", t) for t in domain.points())
        cases.append({
            "rule": label,
            "history": history_to_json(solved.history),
            "played": list(played),
            "expected": list(expected),
            "oracle_count": oracle.count,
            "matches": oracle.count == 1
            and oracle.histories[0] == solved.history
            and played == expected,
        })
    return {"name": "discrete_contrast", "domain_size": 3, "cases": cases}


def _inertia_demo(seed: int) -> dict:
    delta = Fraction(1, 4)
    profile = [
        make_grim_trigger(p, "C", "D", delta, ("C", "D"), UNIT)
        for p in ("p1", "p2")
    ]
    pfx = empty_prefix(UNIT, ("p1", "p2"))
    result = solve_dense(profile, pfx)
    bundle = {"name": "inertia_demo", "delta": str(delta),
              "solve": result.to_json()}
    if result.outcome == "unique":
        bundle["verified"] = verify_unique(profile, pfx, result, seed=seed)
        bundle["consistency"] = is_consistent(
            result.history, profile, seed=seed
        ).to_json()
        bundle["axiom4"] = [
            check_inertiality(
                s, Fraction(0), result.history,
                alphabets={"p1": ("C", "D"), "p2": ("C", "D")}, seed=seed,
            ).to_json()
            for s in profile
        ]
        bundle["event_times"] = sorted(
            {to.format_point(e[0]) for e in result.events}
        )
    return bundle


def _friction_demo(seed: int) -> dict:
    # default C throughout, one instantaneous D at 1/2: frictional
    good = PiecewiseHistory.build(
        UNIT, ("p1",),
        {"p1": [(Interval(0, Fraction(1, 2), True, False), "C"),
                (to.singleton(Fraction(1, 2)), "D"),
                (Interval(Fraction(1, 2), 1, False, True), "C")]},
    )
    # defection held on the whole interval [1/2, 1]: not frictional
    bad = PiecewiseHistory.build(
        UNIT, ("p1",),
        {"p1": [(Interval(0, Fraction(1, 2), True, False), "C"),
                (Interval(Fraction(1, 2), 1), "D")]},
    )
    good_strategy = make_scripted("p1", UNIT, good.pieces_for("p1"),
                                  default_action="C")
    good_solve = solve_dense([good_strategy], empty_prefix(UNIT, ("p1",)))
    reports = {
        "good": check_frictionality("p1", "C", Fraction(0), good).to_json(),
        "bad": check_frictionality("p1", "C", Fraction(0), bad).to_json(),
    }
    return {
        "name": "friction_demo",
        "histories": {"good": history_to_json(good), "bad": history_to_json(bad)},
        "solve_outcome": good_solve.outcome,
        "solved_matches_script": good_solve.history == good
        if good_solve.outcome == "unique" else False,
        "frictionality": reports,
    }


def run_gallery(name: str, seed: int = 0) -> dict:
    """Build and run the named gallery instance; returns the report bundle."""
    if name == "no_trace":
        return _no_trace(seed)
    if name == "multi":
        return _multi(seed)
    if name == "discrete_contrast":
        return _discrete_contrast(seed)
    if name == "inertia_demo":
        return _inertia_demo(seed)
    if name == "friction_demo":
        return _friction_demo(seed)
    raise UnknownNameError(f"unknown gallery instance {name!r}")
