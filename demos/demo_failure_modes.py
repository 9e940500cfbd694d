"""Tour of the ways dense time breaks uniqueness.

Three instances from the built-in gallery plus a Zeno fixture:

  no_trace  -- a rule with no consistent history at all: right after 0 it
               must play 1 while the past is all-0, but playing 1 flips
               its own trigger.
  multi     -- a rule satisfied by two distinct histories that agree up
               to 1/2, so initial uniqueness (Axiom 3) fails exactly there.
  halving   -- holds that halve the time left while the action changes at
               every event; the strategy certifies that contraction, so the
               event loop stops at its second event, classifies the run as
               Zeno and reports the accumulation point 1 exactly.  Stuck on
               one action, it certifies nothing, and the same walk ends
               with its event budget exhausted.

Run:  python3 demos/demo_failure_modes.py
"""

import json

from totime.gallery import run_gallery
from totime.histories import empty_prefix
from totime.solver import solve_dense
from totime.strategies import make_halving_hold
from totime.timeorder import DenseInterval


def main():
    no_trace = run_gallery("no_trace")
    probe = no_trace["traceability"]["witness"]["transcript"][0]
    print("no_trace: traceability passed =",
          no_trace["traceability"]["passed"])
    print("  first probe:", json.dumps(probe))
    print("  why:", no_trace["note"])
    print()

    multi = run_gallery("multi")
    print("multi: distinct consistent histories =", len(multi["histories"]))
    for h in multi["histories"]:
        print("  ", json.dumps(h))
    half = multi["axiom3_at_half"]
    print("  Axiom 3 at 1/2: passed =", half["passed"],
          "disagreement infimum =", half["witness"]["infimum"])
    print()

    unit = DenseInterval(0, 1)
    profile = [make_halving_hold("p1", ("a", "b"), unit)]
    res = solve_dense(profile, empty_prefix(unit, ("p1",)), event_budget=64)
    print(f"halving: outcome = {res.outcome}, "
          f"accumulation point = {res.accumulation} "
          f"(exact, after {res.events_consumed} events)")
    print("  why:", res.diagnosis)
    stuck = [make_halving_hold("p1", ("a",), unit)]
    res = solve_dense(stuck, empty_prefix(unit, ("p1",)), event_budget=64)
    print(f"halving stuck on one action: outcome = {res.outcome} "
          f"after {res.events_consumed} events ({res.diagnosis})")


if __name__ == "__main__":
    main()
