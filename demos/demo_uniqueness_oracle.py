"""Uniqueness on finite chains, cross-checked by brute force.

On a well-ordered time domain every strategy profile traces out exactly
one consistent history: the action at each time is forced by the prefix
built so far.  This demo draws a few random table profiles, counts the
candidate histories, lets the oracle search them (it rejects each block
of candidates at its first inconsistent time), and shows the oracle's
single survivor agreeing bit-for-bit with the forward solver.

Run:  python3 demos/demo_uniqueness_oracle.py
"""

from totime.histories import empty_prefix
from totime.solver import oracle_enumerate, solve_chain
from totime.strategies import make_random_table
from totime.timeorder import FiniteChain


def main():
    domain = FiniteChain(4)
    players = ("p1", "p2")
    alphabets = {p: ("a", "b", "c") for p in players}
    for seed in range(3):
        profile = [make_random_table(p, domain, alphabets[p], seed * 8 + i)
                   for i, p in enumerate(players)]
        pfx = empty_prefix(domain, players)
        solved = solve_chain(profile, pfx).history
        oracle = oracle_enumerate(profile, pfx, alphabets)
        played = [solved.eval(t) for t in range(domain.size)]
        space = (len(alphabets["p1"]) * len(alphabets["p2"])) ** domain.size
        print(f"seed {seed}: {space} candidate histories, "
              f"{oracle.count} survivor(s)")
        print(f"  solver plays {played}")
        print(f"  oracle agrees: {oracle.histories[0] == solved}")


if __name__ == "__main__":
    main()
