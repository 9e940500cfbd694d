"""Seeded input generation.

`make_round(workload, seed, r)` returns the r-th round of a workload as
plain JSON-ready data: specs, scripts and CLI argument lists.  A round
holds the same instance shapes for every seed and every r (the size
ladders in `catalog.WORKLOADS`) with the same domains, lags and discount
rates, so that a round costs about the same for every seed; the seed moves
the contents: cut points, instants, table seeds, payoff tables and seeds.
The engine sees nothing but what is generated here.
"""

from __future__ import annotations

import random
from fractions import Fraction

ACTIONS = ("C", "D")
CHAIN_N = (50, 100, 200, 400)
ORACLE_N = (4, 6, 8)
THREE_PLAYER_MAX_N = 100  # larger chains have two players
MIXES = ("grim/grim", "grim/table", "table/table", "constant/grim")
CHAIN_DELTA = 2
CHAIN_RHO = {"grim/grim": "1/2", "grim/table": "1/4", "table/table": "1",
             "constant/grim": "1/10"}
DENSE_K = (50, 100, 200)  # pieces in the scripted profile, half per player
DOMAINS = {"shifted": (Fraction(3, 2), Fraction(7, 2)),
           "negative": (Fraction(-1), Fraction(1)),
           "nonunit": (Fraction(0), Fraction(5, 2))}
DUEL_BITS = (7, 8, 9)  # horizon / delta = 2**bits events
DEFECTOR_LAG = 16      # grim lag = horizon / 16
# Cheap defector instances keep the median of each phase inside one shape
# instead of on the edge between two.
DEFECTORS_PER_DOMAIN = 3
DENSE_RHO = "1/2"
GRID_BITS = 10
ZENO_BUDGETS = (4096, 4096, 1024, 1024)  # default budget, then a smaller --budget
ZENO_DOMAINS = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(2)),
                (Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(-1, 2)))
CERTIFY_FAMILIES = (
    ("dense grim/grim", (Fraction(0), Fraction(4)), ("grim", "grim")),
    ("dense grim/constant", (Fraction(1, 2), Fraction(5, 2)), ("grim", "D")),
    ("dense constant/constant", (Fraction(1), Fraction(7)), ("C", "D")),
)
CHECK_CHAIN_N = (16, 32, 64)
PAYOFF_RUNGS = ((100, "1/4", 2), (200, "1", 5), (300, "3/2", 8), (400, "2", 10))
CERTIFY_TOL = "1e-40"
GALLERY_NAMES = ("no_trace", "multi", "discrete_contrast", "inertia_demo",
                 "friction_demo")


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{r}")


def _players(count: int) -> list[dict]:
    return [{"id": f"p{i + 1}", "actions": list(ACTIONS)} for i in range(count)]


def _payoff(rng: random.Random, count: int, rho: str) -> dict:
    table = {}
    for mask in range(2 ** count):
        combo = ",".join(ACTIONS[(mask >> (count - 1 - i)) & 1] for i in range(count))
        table[combo] = str(rng.randint(-2, 6))
    return {"rho": rho, "table": table}


def _grim(player: str, delta) -> dict:
    return {"kind": "grim", "player": player, "cooperate": "C", "punish": "D",
            "delta": str(delta)}


def chain_spec(rng: random.Random, n: int, mix: str, count: int) -> dict:
    a, b = mix.split("/")
    players = _players(count)
    strategies = []
    for kind, p in zip([a, b, a][:count], players):
        if kind == "grim":
            strategies.append(_grim(p["id"], CHAIN_DELTA))
        elif kind == "table":
            strategies.append({"kind": "table", "player": p["id"],
                               "seed": rng.randrange(10**6)})
        else:
            strategies.append({"kind": "constant", "player": p["id"], "action": "D"})
    return {
        "domain": {"kind": "chain", "size": n},
        "players": players,
        "strategies": strategies,
        "payoff": _payoff(rng, count, CHAIN_RHO[mix]),
        "seed": rng.randrange(10**6),
    }


def _dense_spec(rng, lo, hi, strategies, rho=DENSE_RHO, count=2) -> dict:
    return {
        "domain": {"kind": "dense", "lo": str(lo), "hi": str(hi)},
        "players": _players(count),
        "strategies": strategies,
        "payoff": _payoff(rng, count, rho),
        "seed": rng.randrange(10**6),
    }


def make_script(rng: random.Random, lo: Fraction, hi: Fraction, pieces: int,
                first: str = "C", grid_bits: int = GRID_BITS) -> list[list]:
    """A canonical piecewise script with exactly `pieces` pieces.

    Cut points lie on the dyadic grid lo + (hi - lo) * j / 2**grid_bits.
    About one cut in six is an instantaneous deviation: a singleton piece
    with the other action, after which the run it interrupted resumes on
    an open-started piece.  Rows are [lo, hi, lo_closed, hi_closed, action]
    with rationals as strings.
    """
    instants = pieces // 6
    cuts = pieces - 1 - instants
    step = (hi - lo) / 2 ** grid_bits
    points = sorted(rng.sample(range(1, 2 ** grid_bits), cuts))
    marked = set(rng.sample(range(cuts), instants))
    other = {"C": "D", "D": "C"}
    rows = []
    start, closed, act = lo, True, first
    for j, g in enumerate(points):
        c = lo + step * g
        rows.append([start, c, closed, False, act])
        if j in marked:
            rows.append([c, c, True, True, other[act]])
            start, closed = c, False
        else:
            act = other[act]
            start, closed = c, True
    rows.append([start, hi, closed, True, act])
    return [[str(a), str(b), lc, hc, x] for a, b, lc, hc, x in rows]


def _chain_round(rng: random.Random, r: int) -> list[dict]:
    out = []
    for mix in MIXES:
        for n in ORACLE_N:
            out.append({"kind": "chain", "mix": mix, "size": n, "oracle": True,
                        "spec": chain_spec(rng, n, mix, 2)})
        for n in CHAIN_N:
            count = 3 if n <= THREE_PLAYER_MAX_N else 2
            out.append({"kind": "chain", "mix": mix, "size": n, "oracle": False,
                        "spec": chain_spec(rng, n, mix, count)})
    return out


def _dense_round(rng: random.Random, r: int) -> list[dict]:
    out = []
    placeholder = [{"kind": "constant", "player": p, "action": "C"}
                   for p in ("p1", "p2")]
    for cls, (lo, hi) in DOMAINS.items():
        for k in DENSE_K:
            out.append({
                "kind": "scripted", "domain_class": cls, "size": k,
                "spec": _dense_spec(rng, lo, hi, placeholder),
                "scripts": {p: make_script(rng, lo, hi, k // 2, rng.choice(ACTIONS))
                            for p in ("p1", "p2")},
            })
    for (cls, (lo, hi)), bits in zip(DOMAINS.items(), DUEL_BITS):
        grims = [_grim(p, (hi - lo) / 2 ** bits) for p in ("p1", "p2")]
        out.append({"kind": "duel", "domain_class": cls, "size": None,
                    "spec": _dense_spec(rng, lo, hi, grims)})
    for _ in range(DEFECTORS_PER_DOMAIN):
        for cls, (lo, hi) in DOMAINS.items():
            strategies = [_grim("p1", (hi - lo) / DEFECTOR_LAG), placeholder[1]]
            out.append({"kind": "defector", "domain_class": cls, "size": None,
                        "spec": _dense_spec(rng, lo, hi, strategies),
                        "scripts": {"p2": make_script(rng, lo, hi, DENSE_K[0], "C")}})
    return out


def _history_rows(rng: random.Random, horizon: int, changes: int) -> dict:
    """Two-player canonical history on [0, horizon] cut at `changes` grid points."""
    step = Fraction(horizon, 2 ** 12)
    bounds = ([Fraction(0)] + [step * g for g in sorted(rng.sample(range(1, 2 ** 12), changes))]
              + [Fraction(horizon)])
    out = {}
    for p in ("p1", "p2"):
        rows = []
        for a, b in zip(bounds, bounds[1:]):
            act = rng.choice(ACTIONS)
            if rows and rows[-1][4] == act:
                rows[-1][1] = b
            else:
                rows.append([a, b, True, False, act])
        rows[-1][3] = True
        out[p] = [[str(a), str(b), lc, hc, x] for a, b, lc, hc, x in rows]
    return out


def _certify_round(rng: random.Random, r: int) -> list[dict]:
    out = []
    for budget, (lo, hi) in zip(ZENO_BUDGETS, ZENO_DOMAINS):
        strategies = [{"kind": "halving", "player": "p1", "cycle": ["C", "D"]},
                      {"kind": "constant", "player": "p2", "action": "C"}]
        argv = ["solve", "{spec}"]
        if budget != ZENO_BUDGETS[0]:
            argv += ["--budget", str(budget)]
        out.append({"kind": "zeno", "family": "halving", "size": budget,
                    "spec": _dense_spec(rng, lo, hi, strategies),
                    "commands": {"solve": argv}})
    for family, (lo, hi), actions in CERTIFY_FAMILIES:
        strategies = [_grim(p, (hi - lo) / DEFECTOR_LAG) if a == "grim"
                      else {"kind": "constant", "player": p, "action": a}
                      for a, p in zip(actions, ("p1", "p2"))]
        out.append({"kind": "spec", "family": family, "size": None,
                    "spec": _dense_spec(rng, lo, hi, strategies),
                    "commands": _spec_commands()})
    for n in CHECK_CHAIN_N:
        out.append({"kind": "spec", "family": "chain grim/table", "size": n,
                    "spec": chain_spec(rng, n, "grim/table", 2),
                    "commands": _spec_commands()})
    for name in ("no_trace", "multi"):
        spec = {"domain": {"kind": "dense", "lo": "0", "hi": "1"},
                "players": [{"id": "p1", "actions": ["0", "1"]}],
                "strategies": [{"kind": "gallery", "player": "p1", "name": name}],
                "seed": rng.randrange(10**6)}
        out.append({"kind": "spec", "family": f"gallery {name}", "size": None,
                    "spec": spec,
                    "commands": {"check": ["check", "{spec}", "--axioms", "1,2,3,4,5"]}})
    for name in GALLERY_NAMES:
        out.append({"kind": "gallery", "family": name, "size": None,
                    "commands": {"check": ["gallery", name, "--seed",
                                           str(rng.randrange(10**6))]}})
    for changes, rho, horizon in PAYOFF_RUNGS:
        spec = _dense_spec(rng, 0, horizon,
                           [{"kind": "constant", "player": p, "action": "C"}
                            for p in ("p1", "p2")], rho)
        out.append({"kind": "payoff", "family": f"payoff {changes}", "size": changes,
                    "spec": spec, "history": _history_rows(rng, horizon, changes),
                    "commands": {"payoff": ["payoff", "{spec}", "{history}",
                                            "--tol", CERTIFY_TOL]}})
    return out


def _spec_commands() -> dict:
    return {"solve": ["solve", "{spec}", "--out", "{history}"],
            "check": ["check", "{spec}", "--axioms", "1,2,3,4,5"],
            "payoff": ["payoff", "{spec}", "{history}", "--tol", CERTIFY_TOL]}


ROUNDS = {"chain": _chain_round, "dense": _dense_round, "certify": _certify_round}


def make_round(workload: str, seed: int, r: int) -> list[dict]:
    """The r-th round of `workload` for `seed`; ids are unique across rounds."""
    insts = ROUNDS[workload](_rng(workload, seed, r), r)
    for i, inst in enumerate(insts):
        inst["id"] = f"{workload}-r{r}-i{i}"
        inst["workload"] = workload
    return insts
