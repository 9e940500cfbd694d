"""Game specification files and payoff evaluation.

A game spec is a JSON document fixing the time domain, the players with
their action alphabets, one strategy spec per player, an optional payoff
block (stage-payoff table over action tuples plus a discount rate rho),
and a seed.  All rationals are exact strings such as "1/2".

Payoffs are aggregated as a discounted sum on chains (factor 1/(1+rho)
per period, exact rational) and as a discounted integral on dense domains
(factor e^{-rho s}), where the exponentials are evaluated as certified
rational enclosures so the whole pipeline stays float-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    AlphabetMismatchError,
    BadParametersError,
    DomainMismatchError,
    SchemaError,
    UnknownStrategyKindError,
)
from . import timeorder as to
from .histories import PiecewiseHistory, chain_actions
from .strategies import (
    GALLERY_NAMES,
    Strategy,
    make_constant,
    make_gallery,
    make_grim_trigger,
    make_halving_hold,
    make_random_table,
    make_table,
)
from .timeorder import DenseInterval, FiniteChain, TimeDomain


STRATEGY_KINDS = ("constant", "grim", "table", "gallery", "halving")


@dataclass(frozen=True)
class GameSpec:
    domain: TimeDomain
    players: tuple[str, ...]
    alphabets: Mapping[str, tuple[str, ...]]
    strategies: tuple[Mapping, ...]  # canonical raw strategy specs
    payoff_table: Optional[Mapping[tuple[str, ...], Mapping[str, Fraction]]]
    rho: Fraction
    seed: int


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _rational(value, path: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError, TypeError):
        raise SchemaError(path, f"not an exact rational: {value!r}")


def _parse_domain(obj, path: str) -> TimeDomain:
    _expect(isinstance(obj, dict), path, "domain must be an object")
    kind = obj.get("kind")
    if kind == "chain":
        size = obj.get("size")
        _expect(isinstance(size, int) and size > 0, f"{path}.size",
                "chain size must be a positive integer")
        return FiniteChain(size)
    if kind == "dense":
        lo = _rational(obj.get("lo"), f"{path}.lo")
        hi = _rational(obj.get("hi"), f"{path}.hi")
        _expect(lo < hi, path, "dense domain needs lo < hi")
        return DenseInterval(lo, hi)
    raise SchemaError(f"{path}.kind", f"unknown domain kind {kind!r}")


def table_key(t, seq: Sequence[Sequence[str]]) -> str:
    """Encode a (time, action-tuple prefix) table key, e.g. "2|C,D;C,C"."""
    return f"{t}|" + ";".join(",".join(a) for a in seq)


def parse_table_key(key: str, path: str) -> tuple[int, tuple]:
    head, _, tail = key.partition("|")
    try:
        t = int(head)
    except ValueError:
        raise SchemaError(path, f"bad table key time in {key!r}")
    seq = tuple(tuple(part.split(",")) for part in tail.split(";")) if tail else ()
    return t, seq


def _parse_strategy(obj, players, alphabets, domain, path: str) -> dict:
    _expect(isinstance(obj, dict), path, "strategy spec must be an object")
    kind = obj.get("kind")
    if kind not in STRATEGY_KINDS:
        raise UnknownStrategyKindError(path, f"unknown strategy kind {kind!r}")
    player = obj.get("player")
    _expect(player in players, f"{path}.player", f"unknown player {player!r}")
    alpha = alphabets[player]

    def check_action(a, field):
        if a not in alpha:
            raise AlphabetMismatchError(
                f"{path}.{field}", f"action {a!r} not in alphabet of {player!r}"
            )

    out = {"kind": kind, "player": player}
    if kind == "constant":
        check_action(obj.get("action"), "action")
        out["action"] = obj["action"]
    elif kind == "grim":
        for field in ("cooperate", "punish"):
            check_action(obj.get(field), field)
        delta = _rational(obj.get("delta"), f"{path}.delta")
        _expect(delta > 0, f"{path}.delta", "delta must be positive")
        out["cooperate"] = obj["cooperate"]
        out["punish"] = obj["punish"]
        out["delta"] = str(delta)
        if "trigger_actions" in obj:
            trig = obj["trigger_actions"]
            _expect(isinstance(trig, list) and trig, f"{path}.trigger_actions",
                    "trigger_actions must be a non-empty list")
            out["trigger_actions"] = sorted(trig)
    elif kind == "table":
        _expect(to.is_chain(domain), path, "table strategies need a chain domain")
        if "entries" in obj:
            entries = obj["entries"]
            _expect(isinstance(entries, dict) and entries, f"{path}.entries",
                    "entries must be a non-empty object")
            for k, v in entries.items():
                parse_table_key(k, f"{path}.entries")
                check_action(v, "entries")
            out["entries"] = dict(sorted(entries.items()))
        else:
            seed = obj.get("seed", 0)
            _expect(isinstance(seed, int), f"{path}.seed",
                    "table seed must be an integer")
            out["seed"] = seed
    elif kind == "gallery":
        name = obj.get("name")
        _expect(name in GALLERY_NAMES, f"{path}.name",
                f"unknown gallery strategy {name!r}")
        out["name"] = name
    elif kind == "halving":
        cycle = obj.get("cycle")
        _expect(isinstance(cycle, list) and cycle, f"{path}.cycle",
                "cycle must be a non-empty list of actions")
        for a in cycle:
            check_action(a, "cycle")
        out["cycle"] = list(cycle)
    return out


def parse_spec(text: Union[str, bytes, Mapping]) -> GameSpec:
    """Parse and validate a game spec document (JSON text or parsed object)."""
    if isinstance(text, (str, bytes)):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"invalid JSON: {e}")
    else:
        obj = text
    _expect(isinstance(obj, dict), "$", "spec must be a JSON object")

    domain = _parse_domain(obj.get("domain"), "domain")

    raw_players = obj.get("players")
    _expect(isinstance(raw_players, list) and raw_players, "players",
            "players must be a non-empty list")
    players = []
    alphabets = {}
    for i, p in enumerate(raw_players):
        path = f"players[{i}]"
        _expect(isinstance(p, dict), path, "player must be an object")
        pid = p.get("id")
        _expect(isinstance(pid, str) and pid, f"{path}.id",
                "player id must be a non-empty string")
        _expect(pid not in alphabets, f"{path}.id", f"duplicate player id {pid!r}")
        actions = p.get("actions")
        _expect(isinstance(actions, list) and actions
                and all(isinstance(a, str) for a in actions),
                f"{path}.actions", "actions must be a non-empty list of strings")
        _expect(len(set(actions)) == len(actions), f"{path}.actions",
                "duplicate actions")
        players.append(pid)
        alphabets[pid] = tuple(actions)

    raw_strats = obj.get("strategies")
    _expect(isinstance(raw_strats, list), "strategies", "strategies must be a list")
    _expect(len(raw_strats) == len(players), "strategies",
            "need exactly one strategy per player")
    strategies = []
    seen = set()
    for i, s in enumerate(raw_strats):
        parsed = _parse_strategy(s, players, alphabets, domain, f"strategies[{i}]")
        _expect(parsed["player"] not in seen, f"strategies[{i}].player",
                f"duplicate strategy for {parsed['player']!r}")
        seen.add(parsed["player"])
        strategies.append(parsed)

    payoff_table = None
    rho = Fraction(0)
    if "payoff" in obj and obj["payoff"] is not None:
        pay = obj["payoff"]
        _expect(isinstance(pay, dict), "payoff", "payoff must be an object")
        rho = _rational(pay.get("rho", "0"), "payoff.rho")
        _expect(rho >= 0, "payoff.rho", "rho must be non-negative")
        table = pay.get("table")
        _expect(isinstance(table, dict) and table, "payoff.table",
                "payoff table must be a non-empty object")
        payoff_table = {}
        import itertools

        required = set(itertools.product(*[alphabets[p] for p in players]))
        for key, val in table.items():
            combo = tuple(key.split(","))
            _expect(combo in required, f"payoff.table[{key!r}]",
                    "key is not an action tuple of this game")
            if isinstance(val, dict):
                _expect(set(val) == set(players), f"payoff.table[{key!r}]",
                        "per-player values must cover every player")
                payoff_table[combo] = {
                    p: _rational(v, f"payoff.table[{key!r}].{p}")
                    for p, v in val.items()
                }
            else:
                u = _rational(val, f"payoff.table[{key!r}]")
                payoff_table[combo] = {p: u for p in players}
        missing = required - set(payoff_table)
        if missing:
            raise SchemaError(
                "payoff.table",
                f"table is missing {len(missing)} action tuples, "
                f"e.g. {','.join(sorted(missing)[0])!r}",
            )

    seed = obj.get("seed", 0)
    _expect(isinstance(seed, int) and seed >= 0, "seed",
            "seed must be a natural number")

    return GameSpec(domain, tuple(players), alphabets, tuple(strategies),
                    payoff_table, rho, seed)


def spec_to_json(spec: GameSpec) -> dict:
    """Canonical JSON form: parse(spec_to_json(parse(x))) == parse(x)."""
    if to.is_chain(spec.domain):
        domain = {"kind": "chain", "size": spec.domain.size}
    else:
        domain = {"kind": "dense", "lo": str(spec.domain.lo),
                  "hi": str(spec.domain.hi)}
    out = {
        "domain": domain,
        "players": [{"id": p, "actions": list(spec.alphabets[p])}
                    for p in spec.players],
        "strategies": [dict(s) for s in spec.strategies],
        "seed": spec.seed,
    }
    if spec.payoff_table is not None:
        out["payoff"] = {
            "rho": str(spec.rho),
            "table": {
                ",".join(combo): {p: str(v) for p, v in sorted(per.items())}
                for combo, per in sorted(spec.payoff_table.items())
            },
        }
    return out


def build_profile(spec: GameSpec, seed: Optional[int] = None) -> list[Strategy]:
    """Instantiate the strategy profile, in player order."""
    if seed is None:
        seed = spec.seed
    by_player = {s["player"]: s for s in spec.strategies}
    out = []
    for p in spec.players:
        s = by_player[p]
        alpha = spec.alphabets[p]
        kind = s["kind"]
        if kind == "constant":
            out.append(make_constant(p, s["action"], alpha, spec.domain))
        elif kind == "grim":
            out.append(make_grim_trigger(
                p, s["cooperate"], s["punish"],
                int(s["delta"]) if to.is_chain(spec.domain) else Fraction(s["delta"]),
                alpha, spec.domain,
                trigger_actions=s.get("trigger_actions"),
            ))
        elif kind == "table":
            if "entries" in s:
                table = {parse_table_key(k, "entries"): v
                         for k, v in s["entries"].items()}
                out.append(make_table(p, spec.domain, table))
            else:
                out.append(make_random_table(p, spec.domain, alpha,
                                             seed + s.get("seed", 0)))
        elif kind == "gallery":
            strat = make_gallery(s["name"], to.domain_top(spec.domain))
            strat.player = p
            out.append(strat)
        elif kind == "halving":
            out.append(make_halving_hold(p, tuple(s["cycle"]), spec.domain))
        else:  # pragma: no cover - parse_spec rejects unknown kinds
            raise UnknownStrategyKindError("strategies", kind)
    return out


# -- certified exponentials ----------------------------------------------------


def exp_neg_enclosure(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= e^{-x} <= hi with hi - lo <= eps, for x >= 0.

    Argument-halving brings x into [0, 1]; an alternating Taylor tail then
    brackets e^{-y}, and the bracket is squared back up.  Squaring at most
    doubles the width (values stay in (0, 1]), which the inner tolerance
    accounts for.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("exp_neg_enclosure requires x >= 0")
    if x == 0:
        return Fraction(1), Fraction(1)
    halvings = 0
    y = x
    while y > 1:
        y /= 2
        halvings += 1
    inner = eps / (2 ** (halvings + 1))
    while True:
        # alternating series: even partial sums above, odd below
        term = Fraction(1)
        total = Fraction(1)
        j = 0
        lo = hi = total
        while term > inner:
            j += 1
            term = term * y / j
            total += -term if j % 2 else term
            if j % 2:
                lo = total
            else:
                hi = total
        if j % 2 == 0:
            lo = total - term  # one more odd term bounds from below
        lo = max(lo, Fraction(0))
        for _ in range(halvings):
            lo, hi = lo * lo, hi * hi
        if hi - lo <= eps:
            return lo, hi
        inner /= 4


@dataclass(frozen=True)
class PayoffVector:
    """Per-player payoff enclosures; lo == hi on chains (exact)."""

    players: tuple[str, ...]
    lo: Mapping[str, Fraction]
    hi: Mapping[str, Fraction]

    def width(self, player: str) -> Fraction:
        return self.hi[player] - self.lo[player]

    def to_json(self) -> dict:
        return {
            p: {"lo": str(self.lo[p]), "hi": str(self.hi[p])}
            for p in self.players
        }


def _stage_payoffs(spec: GameSpec, combo: tuple[str, ...]) -> Mapping[str, Fraction]:
    if spec.payoff_table is None:
        raise DomainMismatchError("spec has no payoff block")
    return spec.payoff_table[combo]


def evaluate_payoff(
    h: PiecewiseHistory, spec: GameSpec, tol: Fraction = Fraction(1, 10**9)
) -> PayoffVector:
    """Discounted payoff of h under the spec's table and rate.

    Chains: sum_t (1/(1+rho))^t u_i(h(t)), exact.  Dense: per constant
    segment (u_i/rho)(e^{-rho lo} - e^{-rho hi}) (or u_i (hi-lo) at rho=0)
    with certified exponential enclosures of total width <= tol; singleton
    pieces contribute zero.
    """
    if h.domain != spec.domain or h.players != spec.players:
        raise DomainMismatchError("history does not match the spec's game")
    if tol <= 0:
        raise BadParametersError(f"payoff tolerance must be positive, got {tol}")
    rho = spec.rho
    if to.is_chain(spec.domain):
        rho_hat = Fraction(1, 1) / (1 + rho)
        lo = {p: Fraction(0) for p in spec.players}
        weight = Fraction(1)  # rho_hat**t
        for combo in chain_actions(h.per_player, spec.domain.size):
            u = _stage_payoffs(spec, combo)
            for p in spec.players:
                lo[p] += weight * u[p]
            weight *= rho_hat
        return PayoffVector(spec.players, dict(lo), dict(lo))

    bounds = sorted(set(h.change_times()))
    segments = []  # (lo, hi, {player: u})
    for a, b in zip(bounds, bounds[1:]):
        if a == b:
            continue
        mid = a + (b - a) / 2
        segments.append((a, b, _stage_payoffs(spec, h.eval(mid))))

    lo = {p: Fraction(0) for p in spec.players}
    hi = {p: Fraction(0) for p in spec.players}
    if rho == 0:
        for a, b, u in segments:
            for p in spec.players:
                lo[p] += u[p] * (b - a)
        return PayoffVector(spec.players, dict(lo), dict(lo))

    max_coef = max(
        (abs(u[p]) / rho for _, _, u in segments for p in spec.players),
        default=Fraction(0),
    )
    eps = tol if max_coef == 0 else tol / (4 * max(1, len(bounds)) * max_coef)
    while True:
        cache = {b: exp_neg_enclosure(rho * b, eps) for b in bounds}
        lo = {p: Fraction(0) for p in spec.players}
        hi = {p: Fraction(0) for p in spec.players}
        for a, b, u in segments:
            ea, eb = cache[a], cache[b]
            d_lo, d_hi = ea[0] - eb[1], ea[1] - eb[0]  # e^{-ra} - e^{-rb} > 0
            for p in spec.players:
                coef = u[p] / rho
                if coef >= 0:
                    lo[p] += coef * d_lo
                    hi[p] += coef * d_hi
                else:
                    lo[p] += coef * d_hi
                    hi[p] += coef * d_lo
        if all(hi[p] - lo[p] <= tol for p in spec.players):
            return PayoffVector(spec.players, lo, hi)
        eps /= 4
