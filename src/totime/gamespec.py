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
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Optional, Union

from .errors import (
    AlphabetMismatchError,
    BadParametersError,
    DomainMismatchError,
    SchemaError,
    UnknownStrategyKindError,
)
from . import timeorder as to
from .histories import PiecewiseHistory, chain_actions, stretch_actions
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
# "t|a,b;c,d" table-strategy keys and "a,b" payoff-table keys split on these
KEY_SEPARATORS = ",;|"

Maker = Callable[[int], Strategy]  # seed -> a player's strategy

# Every chain check, oracle and payoff steps through every time, and so does
# a solve with a table, scripted or gallery strategy, so a chain's size
# bounds all work on it.  Through the CLI, a two-player constant chain of
# this many times takes about 0.2 s to solve (it commits one stretch) and
# 4 s for its exact payoff (Python 3.11, 2 vCPUs).
MAX_CHAIN_SIZE = 100_000

# An exact chain payoff carries one running sum per player and the power
# b^t of rho's denominator, each of about (size - 1) * bit length of
# rho.numerator + rho.denominator bits, and one step per time works on all
# of them.  Through the CLI, one player at this cap over MAX_CHAIN_SIZE
# times (rho 1/16) pays off in about 5 s, and two at rho 1/4 (90% of it) in
# about 4 s (Python 3.11, 2 vCPUs); 1,000 times at rho 1e4000 would take
# minutes.
MAX_PAYOFF_BITS = 1_000_000

# A dense payoff on a domain from lo < 0 encloses e^{-rho lo} <= 2^amp,
# amp = ceil(-3/2 rho lo), and the width of that enclosure grows as 4^amp,
# so every enclosure works at about 2 amp bits, and there is one per
# distinct gap between change times, at most one per stretch.  Through the
# CLI, one constant player on [-1, 1] at rho 83,333 (one stretch, 2 amp =
# 250,000) pays off in about 5 s, and at rho 3e4 in 0.7 s (Python 3.11,
# 2 vCPUs); each further stretch with a new gap adds an enclosure of about
# 3 s at rho 83,333, so the cap bounds the whole payoff, (stretches) x
# 2 amp, as the chain cap does.
MAX_DENSE_PAYOFF_BITS = 250_000


@dataclass(frozen=True)
class GameSpec:
    domain: TimeDomain
    players: tuple[str, ...]
    alphabets: Mapping[str, tuple[str, ...]]
    strategies: tuple[Mapping, ...]  # canonical raw strategy specs
    payoff_table: Optional[Mapping[tuple[str, ...], Mapping[str, Fraction]]]
    rho: Fraction
    seed: int
    # one per player, in player order, closed over the parsed strategy specs
    makers: tuple[Maker, ...] = field(compare=False, repr=False)


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _parse_domain(obj, path: str) -> TimeDomain:
    _expect(isinstance(obj, dict), path, "domain must be an object")
    kind = obj.get("kind")
    if kind == "chain":
        size = obj.get("size")
        _expect(type(size) is int and size > 0, f"{path}.size",
                "chain size must be a positive integer")
        _expect(size <= MAX_CHAIN_SIZE, f"{path}.size",
                f"chain size must be at most {MAX_CHAIN_SIZE}, got {size}")
        return FiniteChain(size)
    if kind == "dense":
        lo = to.parse_rational(obj.get("lo"), f"{path}.lo")
        hi = to.parse_rational(obj.get("hi"), f"{path}.hi")
        _expect(lo < hi, path, "dense domain needs lo < hi")
        return DenseInterval(lo, hi)
    raise SchemaError(f"{path}.kind", f"unknown domain kind {kind!r}")


def _parse_strategy(obj, players, alphabets, domain, path: str) -> tuple[dict, Maker]:
    """Read one strategy spec, checking each field once: its canonical dict,
    which spec_to_json prints, and a maker closed over the values read."""
    _expect(isinstance(obj, dict), path, "strategy spec must be an object")
    kind = obj.get("kind")
    if kind not in STRATEGY_KINDS:
        raise UnknownStrategyKindError(path, f"unknown strategy kind {kind!r}")
    player = obj.get("player")
    _expect(player in players, f"{path}.player", f"unknown player {player!r}")
    alpha = alphabets[player]

    def check_action(a, at):
        if a not in alpha:
            raise AlphabetMismatchError(
                f"{path}.{at}", f"action {a!r} not in alphabet of {player!r}"
            )
        return a

    out = {"kind": kind, "player": player}
    if kind == "constant":
        action = out["action"] = check_action(obj.get("action"), "action")
        return out, lambda seed: make_constant(player, action, alpha, domain)
    if kind == "grim":
        cooperate = out["cooperate"] = check_action(obj.get("cooperate"), "cooperate")
        punish = out["punish"] = check_action(obj.get("punish"), "punish")
        _expect(cooperate != punish, f"{path}.punish", "cooperate and punish must differ")
        delta = to.parse_rational(obj.get("delta"), f"{path}.delta", integer=to.is_chain(domain))
        _expect(delta > 0, f"{path}.delta", "delta must be positive")
        out["delta"] = str(delta)
        trig = obj.get("trigger_actions")
        if "trigger_actions" in obj:
            others = {a for p in players if p != player for a in alphabets[p]}
            _expect(isinstance(trig, list) and trig
                    and all(isinstance(a, str) and a in others for a in trig),
                    f"{path}.trigger_actions",
                    "trigger_actions must be a non-empty list of other players' actions")
            trig = out["trigger_actions"] = sorted(trig)
        return out, lambda seed: make_grim_trigger(player, cooperate, punish, delta, alpha,
                                                   domain, trigger_actions=trig)
    if kind == "table":
        _expect(to.is_chain(domain), path, "table strategies need a chain domain")
        if "entries" in obj:
            entries, where, table = obj["entries"], f"{path}.entries", {}
            _expect(isinstance(entries, dict) and entries, where,
                    "entries must be a non-empty object")
            for k, v in entries.items():
                head, _, tail = k.partition("|")
                try:
                    t = int(head)
                except ValueError:
                    raise SchemaError(where, f"bad table key time in {k!r}") from None
                seq = tuple(tuple(part.split(",")) for part in tail.split(";")) if tail else ()
                _expect(0 <= t < domain.size, where, f"key {k!r} has a time outside the chain")
                _expect(len(seq) == t, where,
                        f"key {k!r} needs one action tuple per time before {t}")
                for combo in seq:
                    _expect(len(combo) == len(players), where,
                            f"key {k!r} needs one action per player in each tuple")
                    for p, a in zip(players, combo):
                        _expect(a in alphabets[p], where,
                                f"key {k!r}: action {a!r} not in alphabet of {p!r}")
                _expect((t, seq) not in table, where,
                        f"key {k!r} repeats the time and prefix of an earlier key")
                table[t, seq] = check_action(v, "entries")
            out["entries"] = dict(sorted(entries.items()))
            return out, lambda seed: make_table(player, domain, table)
        own = out["seed"] = obj.get("seed", 0)
        _expect(type(own) is int, f"{path}.seed", "table seed must be an integer")
        return out, lambda seed: make_random_table(player, domain, alpha, seed + own)
    if kind == "gallery":
        name = out["name"] = obj.get("name")
        _expect(name in GALLERY_NAMES, f"{path}.name", f"unknown gallery strategy {name!r}")
        _expect(domain.top > 0, path, "gallery strategies need a domain whose top is positive")
        return out, lambda seed: replace(make_gallery(name, domain.top), player=player)
    cycle = obj.get("cycle")
    _expect(isinstance(cycle, list) and cycle, f"{path}.cycle",
            "cycle must be a non-empty list of actions")
    out["cycle"] = [check_action(a, "cycle") for a in cycle]
    cycle = tuple(cycle)
    return out, lambda seed: make_halving_hold(player, cycle, domain)


def parse_spec(text: Union[str, bytes, Mapping]) -> GameSpec:
    """Parse and validate a game spec document (JSON text or parsed object)."""
    if isinstance(text, (str, bytes)):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as e:  # ValueError: also ints past 4,300 digits
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
        for j, a in enumerate(actions):
            if any(sep in a for sep in KEY_SEPARATORS):
                raise SchemaError(f"{path}.actions[{j}]",
                                  f"action {a!r} contains one of {KEY_SEPARATORS!r}, the "
                                  f"separators of payoff-table and table-strategy keys")
        players.append(pid)
        alphabets[pid] = tuple(actions)

    raw_strats = obj.get("strategies")
    _expect(isinstance(raw_strats, list), "strategies", "strategies must be a list")
    _expect(len(raw_strats) == len(players), "strategies",
            "need exactly one strategy per player")
    strategies = []
    makers = {}
    for i, s in enumerate(raw_strats):
        parsed, make = _parse_strategy(s, players, alphabets, domain, f"strategies[{i}]")
        _expect(parsed["player"] not in makers, f"strategies[{i}].player",
                f"duplicate strategy for {parsed['player']!r}")
        makers[parsed["player"]] = make
        strategies.append(parsed)

    payoff_table = None
    rho = Fraction(0)
    if "payoff" in obj and obj["payoff"] is not None:
        pay = obj["payoff"]
        _expect(isinstance(pay, dict), "payoff", "payoff must be an object")
        rho = to.parse_rational(pay.get("rho", "0"), "payoff.rho")
        _expect(rho >= 0, "payoff.rho", "rho must be non-negative")
        table = pay.get("table")
        _expect(isinstance(table, dict) and table, "payoff.table",
                "payoff table must be a non-empty object")
        payoff_table = {}
        allowed = [set(alphabets[p]) for p in players]
        for key, val in table.items():
            combo = tuple(key.split(","))
            _expect(len(combo) == len(players) and all(a in A for A, a in zip(allowed, combo)),
                    f"payoff.table[{key!r}]", "key is not an action tuple of this game")
            if isinstance(val, dict):
                _expect(set(val) == set(players), f"payoff.table[{key!r}]",
                        "per-player values must cover every player")
                payoff_table[combo] = {
                    p: to.parse_rational(v, f"payoff.table[{key!r}].{p}")
                    for p, v in val.items()
                }
            else:
                u = to.parse_rational(val, f"payoff.table[{key!r}]")
                payoff_table[combo] = {p: u for p in players}
        # the alphabet product is never built: keys are counted against its
        # size, and the first missing tuple is found by walking it in order
        missing = math.prod(map(len, allowed)) - len(payoff_table)
        if missing:
            first = next(c for c in product(*map(sorted, allowed)) if c not in payoff_table)
            raise SchemaError("payoff.table", f"table is missing {missing} action tuples, "
                                              f"e.g. {','.join(first)!r}")

    seed = obj.get("seed", 0)
    _expect(type(seed) is int and seed >= 0, "seed",
            "seed must be a natural number")

    return GameSpec(domain, tuple(players), alphabets, tuple(strategies),
                    payoff_table, rho, seed, tuple(makers[p] for p in players))


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
    return [make(seed) for make in spec.makers]


# -- certified exponentials ----------------------------------------------------


def _ceil_log2(r: Fraction) -> int:
    """The least p >= 0 with 2^p >= r."""
    n, d = r.numerator, r.denominator
    p = max(0, n.bit_length() - d.bit_length())
    return p if n <= d << p else p + 1


# Halving past y <= 1 down to y <= 2^-8 trades Taylor terms for squarings;
# that was fastest at 60 to 250 bits (about 1.5x over y <= 1, Python 3.11).
_EXTRA_HALVINGS = 8


def _exp_neg_fixed(x: Fraction, p: int) -> tuple[int, int]:
    """Integers L <= 2^p e^{-x} <= H with H - L <= 3, for rational x >= 0.

    Works at w = p + k + g bits: x is halved k times into y <= 2^-8, the
    alternating Taylor series of e^{-y} is summed with each term bounded by
    floor and ceil, taking the bound that lowers L and the one that raises
    H, one ulp covers the truncated tail, and the bracket is squared k times
    back up with floor for L and ceil for H.  Every rounding moves away from
    e^{-x}, so the bracket is certified.  The Taylor bracket is at most
    2w + 6 ulps wide and a squaring at most doubles a width and adds 2 ulps
    (both bounds stay in [0, 2^w]), so g guard bits with 2^g >= 2w + 8 leave
    at most 3 ulps once the result is rounded outward to p bits.
    """
    n, d = x.numerator, x.denominator
    if n == 0:
        return 1 << p, 1 << p
    k = _ceil_log2(x) + _EXTRA_HALVINGS
    w = p + k + (p + k).bit_length() + 5
    den = d << k  # y = n / den
    one = lo = hi = t_lo = t_hi = 1 << w
    j = 0
    while t_hi > 1:  # t_lo <= 2^w y^j / j! <= t_hi, decreasing in j as y < 1
        j += 1
        t_lo = t_lo * n // (den * j)
        t_hi = -(-t_hi * n // (den * j))
        if j & 1:
            lo -= t_hi
            hi -= t_lo
        else:
            lo += t_lo
            hi += t_hi
    lo, hi = max(lo - 1, 0), min(hi + 1, one)
    for _ in range(k):
        lo = lo * lo >> w
        hi = -(-hi * hi >> w)
    return lo >> (w - p), -(-hi >> (w - p))


def exp_neg_enclosure(x: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= e^{-x} <= hi with hi - lo <= eps, for x >= 0, eps > 0.

    Negative x raises ValueError (payoffs on domains below 0 factor the
    exponential instead, see evaluate_payoff).  Both bounds are dyadic:
    the fixed-point kernel's integers over 2^p, with 2^p >= 3 / eps.
    """
    x, eps = Fraction(x), Fraction(eps)
    if x < 0:
        raise ValueError("exp_neg_enclosure requires x >= 0")
    if eps <= 0:
        raise ValueError("exp_neg_enclosure requires eps > 0")
    p = _ceil_log2(3 / eps)
    lo, hi = _exp_neg_fixed(x, p)
    return Fraction(lo, 1 << p), Fraction(hi, 1 << p)


@dataclass(frozen=True)
class PayoffVector:
    """Per-player payoff enclosures; lo == hi on chains (exact)."""

    players: tuple[str, ...]
    lo: Mapping[str, Fraction]
    hi: Mapping[str, Fraction]

    def width(self, player: str) -> Fraction:
        return self.hi[player] - self.lo[player]

    def to_json(self) -> dict:
        out = {}
        for p in self.players:
            # an exact value is formatted once: past 4,300 digits each
            # formatting is a Decimal conversion
            lo, hi = self.lo[p], self.hi[p]
            text = to.format_point(lo)
            out[p] = {"lo": text, "hi": text if hi == lo else to.format_point(hi)}
        return out


def _stage_payoffs(spec: GameSpec, combo: tuple[str, ...]) -> Mapping[str, Fraction]:
    if spec.payoff_table is None:
        raise DomainMismatchError("spec has no payoff block")
    return spec.payoff_table[combo]


def _tuple_weights(spec: GameSpec, combos: list) -> tuple[int, dict]:
    """scale, the lcm of the payoffs' denominators, and each distinct action
    tuple of `combos` with its u * scale per player, so the sums over times
    or stretches stay integers; each tuple is looked up and scaled once."""
    payoffs = {combo: _stage_payoffs(spec, combo) for combo in dict.fromkeys(combos)}
    scale = math.lcm(*(u[p].denominator for u in payoffs.values() for p in spec.players))
    return scale, {combo: [u[p].numerator * (scale // u[p].denominator) for p in spec.players]
                   for combo, u in payoffs.items()}


def _exp_neg_chain(x0: Fraction, gaps: list, p: int) -> list[tuple[int, int]]:
    """Integers L_k <= 2^p e^{-x_k} <= H_k with H_k - L_k <= 3 at
    x_0 = x0 >= 0 and x_{k+1} = x_k + gaps[k], each gap > 0, from one
    kernel call at x0 and one per distinct gap.

    e^{-x_{k+1}} = e^{-x_k} e^{-gaps[k]}: the chain runs at w = p + g bits
    and multiplies each bracket by the kernel's bracket of the gap, with
    floor for L and ceil for H, then rounds each result outward to p bits.
    Every factor lies in [0, 2^w], so a product of brackets of widths W and
    at most 3 is at most W + 5 ulps wide; after len(gaps) products the
    width is below 5 len(gaps) + 3 <= 2^g ulps, which rounding to p bits
    leaves at most 3 wide.  Every rounding moves away from e^{-x_k}.  Gap
    brackets are cached by the gap's numerator and denominator, never by
    its value, whose hash collides among dyadics.
    """
    g = (5 * len(gaps) + 3).bit_length()
    w = p + g
    lo, hi = _exp_neg_fixed(x0, w)
    out = [(lo >> g, -(-hi >> g))]
    cache: dict = {}
    for d in gaps:
        key = d.numerator, d.denominator
        if (f := cache.get(key)) is None:
            f = cache[key] = _exp_neg_fixed(d, w)
        lo = lo * f[0] >> w
        hi = -(-hi * f[1] >> w)
        out.append((lo >> g, -(-hi >> g)))
    return out


def evaluate_payoff(
    h: PiecewiseHistory, spec: GameSpec, tol: Fraction = Fraction(1, 10**9)
) -> PayoffVector:
    """Discounted payoff of h under the spec's table and rate.

    Chains: sum_t (1/(1+rho))^t u_i(h(t)), exact.  Dense: the sum over the
    constant stretches [a, b] of (u_i/rho)(e^{-rho a} - e^{-rho b}) (exactly
    u_i (b-a) at rho = 0), enclosed in [lo, hi] with hi - lo <= tol;
    singleton pieces contribute zero.

    Each e^{-rho t} is factored as e^{-rho c} e^{-rho (t-c)} with
    c = min(domain start, 0), so the kernel only sees arguments >= 0, also
    on domains below 0.  Every 2^p e^{-rho (t-c)} is bracketed by integers
    L <= . <= H at most 3 apart at one shared precision p, by one kernel
    call at the first change time and one per distinct gap between change
    times, chained by outward-rounded products at guard bits
    (`_exp_neg_chain`).  The weights are scaled to integers once per
    distinct action tuple, and each tuple's sums of L_a - H_b and
    H_a - L_b over its stretches are exact integers; u times the first
    (the second for u < 0) bounds the low end, and the other the high
    end.  They are divided by rho 2^p once and multiplied by the enclosure
    2^p / [H, L] of e^{-rho c}.  p is chosen so that 6 ulps per stretch
    times e^{-rho c}, plus the factor's own width (which grows as
    e^{-2 rho c}) times the sum, stay within tol.  Every rounding moves outward, so [lo, hi]
    contains the payoff whatever p is; the final width check certifies
    hi - lo <= tol, and p grows and the sum is redone if it fails.
    """
    if h.domain != spec.domain or h.players != spec.players:
        raise DomainMismatchError("history does not match the spec's game")
    for p, pieces in zip(h.players, h.per_player):
        for _, a in pieces:
            if a not in spec.alphabets[p]:
                raise DomainMismatchError(f"history of {p!r} plays {a!r}, not in its alphabet")
    if tol <= 0:
        raise BadParametersError(f"payoff tolerance must be positive, got {tol}")
    rho = spec.rho
    if to.is_chain(spec.domain):
        size = spec.domain.size
        bits = (len(spec.players) + 1) * (size - 1) * (rho.numerator + rho.denominator).bit_length()
        _expect(bits <= MAX_PAYOFF_BITS, "payoff.rho", f"the exact payoff of a chain of size "
                f"{size} at this rho needs about {bits} bits, more than {MAX_PAYOFF_BITS}")
        # rho = a/b, so rho_hat = b/c with c = a + b; with integer weights
        # w = u * scale, acc_t = acc_{t-1} c + w_t b^t sums w_t b^t c^(n-1-t)
        b = rho.denominator
        c = rho.numerator + b
        combos = chain_actions(h.per_player, size)
        scale, weights = _tuple_weights(spec, combos)
        acc = [0] * len(spec.players)
        b_t = 1
        for combo in combos:
            for i, w in enumerate(weights[combo]):
                acc[i] = acc[i] * c + w * b_t
            b_t *= b
        den = scale * c ** (len(combos) - 1)
        exact = {p: Fraction(n, den) for p, n in zip(spec.players, acc)}
        return PayoffVector(spec.players, exact, dict(exact))

    times = h.change_times()
    c = min(times[0], 0)
    amp = math.ceil(-3 * rho * c / 2)  # e^{-rho c} <= 2^amp, as log2(e) < 3/2
    work = (len(times) - 1) * 2 * amp  # an enclosure of about 2 amp bits per stretch
    _expect(work <= MAX_DENSE_PAYOFF_BITS, "payoff.rho",
            f"the payoff on a dense domain from {to.format_point(c)} at this rho needs about "
            f"{work} bits, more than {MAX_DENSE_PAYOFF_BITS}")
    # combos[k] is played on the stretch [times[k], times[k+1]]
    combos = stretch_actions(h.per_player, times)
    scale, weights = _tuple_weights(spec, combos)
    if rho == 0:
        exact = {p: sum(weights[combo][i] * (b - a) for a, b, combo in zip(times, times[1:], combos))
                 / scale for i, p in enumerate(spec.players)}
        return PayoffVector(spec.players, exact, dict(exact))

    top = max(abs(w) for ws in weights.values() for w in ws)
    # 24 n covers 6 ulps per stretch plus the factor's width;
    # amp + 3 bits keep f_lo >= 5
    bits = max(amp + 3, _ceil_log2(24 * len(combos) * max(top, 1) * 4**amp
                                   / (scale * rho * tol)))
    gaps = [rho * (b - a) for a, b in zip(times, times[1:])]
    while True:
        one = 1 << bits
        enc = _exp_neg_chain(rho * (times[0] - c), gaps, bits)
        f_lo, f_hi = _exp_neg_fixed(-rho * c, bits)
        factor = (Fraction(one, f_hi), Fraction(one, f_lo))  # encloses e^{-rho c}
        # the sums of (L_a - H_b) and (H_a - L_b) over each tuple's stretches
        # bracket one * sum (e^{-rho(a-c)} - e^{-rho(b-c)}); a weight w >= 0
        # takes w times the first as its low end, a negative one the second
        sums = {combo: [0, 0] for combo in weights}
        for (la, ha), (lb, hb), combo in zip(enc, enc[1:], combos):
            d = sums[combo]
            d[0] += la - hb
            d[1] += ha - lb
        n_lo = [0] * len(spec.players)
        n_hi = [0] * len(spec.players)
        for combo, (d_lo, d_hi) in sums.items():
            for i, w in enumerate(weights[combo]):
                n_lo[i] += w * (d_lo if w >= 0 else d_hi)
                n_hi[i] += w * (d_hi if w >= 0 else d_lo)
        den = rho * scale * one
        lo = {p: min(n * f for f in factor) / den for p, n in zip(spec.players, n_lo)}
        hi = {p: max(n * f for f in factor) / den for p, n in zip(spec.players, n_hi)}
        if all(hi[p] - lo[p] <= tol for p in spec.players):
            return PayoffVector(spec.players, lo, hi)
        bits += 16
