"""Two grim-trigger players on dense time [0, 1].

Both cooperate, threaten to punish forever once they see a defection, and
react with a lag of 1/4.  Given the tuple (C, C) the event loop commits,
no one plays a trigger, so each grim holds to the end: one cooperative
stretch across the interval and the closing instant, 2 events at any lag.
The unique consistent history is all-C, and the discounted payoff is a
certified enclosure of 2 (1 - e^(-1/2)) per player.

Run:  python3 demos/demo_grim_duel.py
"""

import json
from fractions import Fraction

from totime.gamespec import build_profile, evaluate_payoff, parse_spec
from totime.histories import empty_prefix, history_to_json
from totime.solver import solve_dense, verify_unique

SPEC = {
    "domain": {"kind": "dense", "lo": "0", "hi": "1"},
    "players": [
        {"id": "p1", "actions": ["C", "D"]},
        {"id": "p2", "actions": ["C", "D"]},
    ],
    "strategies": [
        {"kind": "grim", "player": "p1", "cooperate": "C", "punish": "D",
         "delta": "1/4"},
        {"kind": "grim", "player": "p2", "cooperate": "C", "punish": "D",
         "delta": "1/4"},
    ],
    "payoff": {
        "rho": "1/2",
        "table": {"C,C": "1", "C,D": "0", "D,C": "0", "D,D": "0"},
    },
}


def main():
    spec = parse_spec(json.dumps(SPEC))
    profile = build_profile(spec)
    pfx = empty_prefix(spec.domain, spec.players)

    result = solve_dense(profile, pfx)
    print(f"outcome: {result.outcome} "
          f"({result.events_consumed} events consumed)")
    for time, kind, actions, holds in result.events:
        print(f"  t={time!s:<5} {kind:<6} actions={actions} holds={holds}")
    print("history:", json.dumps(history_to_json(result.history)))

    ok = verify_unique(profile, pfx, result, runs=6)
    print("verified under 6 permuted query orders:", ok)

    vec = evaluate_payoff(result.history, spec, tol=Fraction(1, 10**9))
    for p in spec.players:
        print(f"payoff {p}: [{vec.lo[p]}, {vec.hi[p]}] "
              f"(width {float(vec.width(p)):.2e})")


if __name__ == "__main__":
    main()
