"""References the benchmark checks results against.

None of these call the engine path being timed.  Chain histories come
from a forward simulation written here from the strategy definitions,
dense histories from the scripts or from the grim closed form, payoffs
from a plain Fraction sum (chains) or a `decimal` evaluation of the
discounted integral (dense), and axiom verdicts from tables written by
hand from the axioms' theory.  Each check returns None when the result is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

Row = tuple  # (lo, hi, lo_closed, hi_closed, action), rationals as Fraction


def F(x) -> Fraction:
    return Fraction(str(x))


def parse_rows(rows) -> list[Row]:
    """Rows of a generated script, or of a history printed as JSON."""
    out = []
    for row in rows:
        if isinstance(row, dict):
            row = (row["lo"], row["hi"], row["lo_closed"], row["hi_closed"], row["action"])
        lo, hi, lc, hc, a = row
        out.append((F(lo), F(hi), bool(lc), bool(hc), str(a)))
    return out


def history_rows(h) -> list[list[Row]]:
    """Per-player rows of an engine history, read from its fields."""
    return [[(F(iv.lo), F(iv.hi), iv.lo_closed, iv.hi_closed, a) for iv, a in pp]
            for pp in h.per_player]


def _covers(row: Row, t: Fraction) -> bool:
    lo, hi, lc, hc, _ = row
    return (lo < t < hi) or (t == lo and lc) or (t == hi and hc)


def action_at(rows: list[Row], t: Fraction) -> str:
    for row in rows:
        if _covers(row, t):
            return row[4]
    raise ValueError(f"rows do not cover {t}")


def segment_actions(per_player: list[list[Row]], bounds: list[Fraction]) -> list[tuple]:
    """Action tuple on each open stretch between consecutive sorted bounds."""
    ptr = [0] * len(per_player)
    out = []
    for a, b in zip(bounds, bounds[1:]):
        mid = (a + b) / 2
        acts = []
        for i, rows in enumerate(per_player):
            while not _covers(rows[ptr[i]], mid):
                ptr[i] += 1
            acts.append(rows[ptr[i]][4])
        out.append(tuple(acts))
    return out


# -- chains ---------------------------------------------------------------


def chain_reference(spec: dict) -> list[tuple[str, ...]]:
    """Forward simulation of a chain spec from the strategy definitions.

    constant: always its action.  grim: punish from r + delta on, where r
    is the earliest time an opponent played anything but `cooperate`.
    table (seeded): the action indexed by the first 8 bytes of
    sha256("seed|player|t|repr(prefix)"), seed being the spec seed plus
    the table seed.
    """
    n = spec["domain"]["size"]
    players = [p["id"] for p in spec["players"]]
    alphabets = {p["id"]: tuple(p["actions"]) for p in spec["players"]}
    strategies = {s["player"]: s for s in spec["strategies"]}
    seq: list[tuple[str, ...]] = []
    first_trigger = {p: None for p in players}
    for t in range(n):
        acts = []
        for i, p in enumerate(players):
            s = strategies[p]
            if s["kind"] == "constant":
                acts.append(s["action"])
            elif s["kind"] == "grim":
                r = first_trigger[p]
                punish = r is not None and r + int(s["delta"]) <= t
                acts.append(s["punish"] if punish else s["cooperate"])
            elif s["kind"] == "table":
                payload = f"{spec.get('seed', 0) + s['seed']}|{p}|{t}|{tuple(seq)!r}"
                digest = hashlib.sha256(payload.encode()).digest()
                alpha = alphabets[p]
                acts.append(alpha[int.from_bytes(digest[:8], "big") % len(alpha)])
            else:
                raise ValueError(f"no chain reference for {s['kind']!r}")
        seq.append(tuple(acts))
        for i, p in enumerate(players):
            s = strategies[p]
            if s["kind"] == "grim" and first_trigger[p] is None and any(
                a != s["cooperate"] for j, a in enumerate(acts) if j != i
            ):
                first_trigger[p] = t
    return seq


def expand_chain(per_player: list[list[Row]], n: int) -> list[tuple[str, ...]]:
    """Action tuple at each chain time, read off per-player rows."""
    return [tuple(action_at(rows, Fraction(t)) for rows in per_player)
            for t in range(n)]


def stage_table(spec: dict) -> dict:
    players = [p["id"] for p in spec["players"]]
    out = {}
    for key, val in spec["payoff"]["table"].items():
        combo = tuple(key.split(","))
        out[combo] = ({p: F(v) for p, v in val.items()} if isinstance(val, dict)
                      else {p: F(val) for p in players})
    return out


def chain_payoff(spec: dict, seq: list[tuple[str, ...]]) -> dict:
    """sum_t (1/(1+rho))^t u_i(seq[t]) as exact Fractions."""
    table = stage_table(spec)
    factor = 1 / (1 + F(spec["payoff"]["rho"]))
    total = {p["id"]: Fraction(0) for p in spec["players"]}
    weight = Fraction(1)
    for acts in seq:
        for p, u in table[acts].items():
            total[p] += weight * u
        weight *= factor
    return total


def check_chain(rows: list[list[Row]], ref: list[tuple[str, ...]]) -> Optional[str]:
    got = expand_chain(rows, len(ref))
    if got != ref:
        t = next(i for i, (a, b) in enumerate(zip(got, ref)) if a != b)
        return f"history plays {got[t]} at {t}, reference {ref[t]}"
    return None


# -- dense closed forms ---------------------------------------------------


def grim_rows(lo: Fraction, hi: Fraction, delta: Fraction,
              trigger: Optional[Fraction], cooperate="C", punish="D") -> list[Row]:
    """Grim trigger with lag delta: cooperate, then punish from trigger + delta."""
    if trigger is None or trigger + delta > hi:
        return [(lo, hi, True, True, cooperate)]
    start = trigger + delta
    if start == hi:
        return [(lo, hi, True, False, cooperate), (hi, hi, True, True, punish)]
    return [(lo, start, True, False, cooperate), (start, hi, True, True, punish)]


def first_trigger(rows: list[Row], cooperate="C") -> Optional[Fraction]:
    """Infimum of the times at which rows play anything but `cooperate`."""
    for lo, _, _, _, a in rows:
        if a != cooperate:
            return lo
    return None


def check_rows(got: list[list[Row]], want: list[list[Row]]) -> Optional[str]:
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"player {i + 1} pieces differ from the reference ({len(g)} vs {len(w)})"
    if len(got) != len(want):
        return "player count differs from the reference"
    return None


# -- payoffs --------------------------------------------------------------


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def dense_payoff(spec: dict, per_player: list[list[Row]], prec: int) -> tuple[dict, Fraction]:
    """Discounted payoff integral evaluated in `decimal` at `prec` digits.

    Returns per-player values as Fractions and a bound on their rounding
    error.  Segments are the open stretches between consecutive boundary
    points; the stage payoff is read at each segment's midpoint.
    """
    table = stage_table(spec)
    rho = F(spec["payoff"]["rho"])
    players = [p["id"] for p in spec["players"]]
    bounds = sorted({x for rows in per_player for r in rows for x in (r[0], r[1])})
    total = {p: Fraction(0) for p in players}
    stretches = list(zip(bounds, bounds[1:], segment_actions(per_player, bounds)))
    if rho == 0:
        for a, b, acts in stretches:
            u = table[acts]
            for p in players:
                total[p] += u[p] * (b - a)
        return total, Fraction(0)
    with localcontext() as ctx:
        ctx.prec = prec
        exps = {b: (-_dec(rho * b)).exp() for b in bounds}
        acc = {p: Decimal(0) for p in players}
        scale = Decimal(0)
        for a, b, acts in stretches:
            u = table[acts]
            diff = exps[a] - exps[b]
            for p in players:
                coef = _dec(u[p] / rho)
                acc[p] += coef * diff
                scale += abs(coef) * (abs(exps[a]) + abs(exps[b]))
    err = Fraction(scale) * Fraction(10) ** (4 - prec) + Fraction(10) ** (-prec)
    return {p: Fraction(acc[p]) for p in players}, err


def check_enclosure(lo: Fraction, hi: Fraction, ref: Fraction, err: Fraction,
                    tol: Fraction) -> Optional[str]:
    if hi - lo > tol:
        return f"enclosure width {float(hi - lo):.3g} exceeds tol {float(tol):.3g}"
    if not (lo - err <= ref <= hi + err):
        return "enclosure does not contain the decimal reference"
    return None


# -- certify: verdicts written from the axioms' theory ----------------------

T, X = True, False
# family -> axiom -> expected verdict per player, in player order.
#   chains: time is well-ordered, so forward recursion gives exactly one
#     consistent history and axioms 1-5 hold for every strategy.
#   constant and grim (lag delta > 0) strategies are inertial, hence
#     traceable and initially unique; constant histories never leave z.
#   grim against a permanent defector punishes on a non-degenerate
#     interval, so its history departs from z = C on an interval (axiom 5).
#   no_trace: no history survives a re-query right after 0 (axiom 1
#     fails) and the response flips on every window at 0 (axiom 4 fails);
#     with no consistent histories axiom 3 holds vacuously.
#   multi: the all-0 history is consistent (axiom 1 holds); so is 0 at 0
#     followed by 1 on (0, hi], which leaves all-0 immediately after 0
#     (axiom 3 fails); adding a 1 to the past flips the response (axiom 4
#     fails).  Axioms 2 and 5 are read on the reference history, which is
#     constant for the black boxes.
CHECK_TABLE = {
    "dense grim/grim": {1: [T, T], 2: [T, T], 3: [T, T], 4: [T, T], 5: [T, T]},
    "dense grim/constant": {1: [T, T], 2: [T, T], 3: [T, T], 4: [T, T], 5: [X, T]},
    "dense constant/constant": {1: [T, T], 2: [T, T], 3: [T, T], 4: [T, T], 5: [T, T]},
    "chain grim/table": {1: [T, T], 2: [T, T], 3: [T, T], 4: [T, T], 5: [T, T]},
    "gallery no_trace": {1: [X], 2: [T], 3: [T], 4: [X], 5: [T]},
    "gallery multi": {1: [T], 2: [T], 3: [X], 4: [X], 5: [T]},
}


def _ok_or_sampled(report: dict, key: str, expected: bool) -> bool:
    """A verdict matches, or is None from a sampled (inconclusive) method."""
    if report[key] is None:
        return report.get("method") == "sampled"
    return report[key] is expected


def check_verdicts(family: str, out: dict, code: int) -> list[str]:
    """Mismatches of a `totime check` result against CHECK_TABLE."""
    problems = []
    table = CHECK_TABLE[family]
    reports = out["reports"]
    for axiom, want in table.items():
        got = reports.get(str(axiom))
        if got is None or len(got) != len(want):
            problems.append(f"axiom {axiom}: missing reports")
            continue
        for i, (rep, exp) in enumerate(zip(got, want)):
            if not _ok_or_sampled(rep, "passed", exp):
                problems.append(f"axiom {axiom} player {i + 1}: passed={rep['passed']} "
                                f"({rep['method']}), theory says {exp}")
    flat = [rep for reps in reports.values() for rep in reps]
    want_code = (1 if any(r["passed"] is False for r in flat)
                 else 2 if any(r["passed"] is None for r in flat) else 0)
    if code != want_code:
        problems.append(f"exit {code}, verdicts imply {want_code}")
    return problems


def check_gallery(name: str, out: dict) -> Optional[str]:
    """`totime gallery NAME` bundles against the classic results."""
    if name == "no_trace":
        ok = _ok_or_sampled(out["traceability"], "passed", False)
    elif name == "multi":
        ok = (all(_ok_or_sampled(c, "consistent", True) for c in out["consistency"])
              and out["axiom3_at_0"]["passed"] is True
              and out["axiom3_at_half"]["passed"] is False
              and _ok_or_sampled(out["axiom4_at_0"], "passed", False))
    elif name == "discrete_contrast":
        played = {c["rule"]: (c["played"], c["oracle_count"]) for c in out["cases"]}
        ok = (played.get("all_previous_zero") == (["1", "0", "0"], 1)
              and played.get("some_previous_one") == (["0", "0", "0"], 1))
    elif name == "inertia_demo":
        rows = {p: parse_rows(v) for p, v in out["solve"].get("history", {}).items()}
        all_c = [(Fraction(0), Fraction(1), True, True, "C")]
        ok = (out["solve"]["outcome"] == "unique" and out.get("verified") is True
              and out["consistency"]["consistent"] is True
              and all(r["passed"] is True for r in out["axiom4"])
              and rows == {"p1": all_c, "p2": all_c})
    elif name == "friction_demo":
        ok = (out["frictionality"]["good"]["passed"] is True
              and out["frictionality"]["bad"]["passed"] is False
              and out["solve_outcome"] == "unique"
              and out["solved_matches_script"] is True)
    else:
        return f"unknown gallery {name!r}"
    return None if ok else f"gallery {name} bundle disagrees with theory"
