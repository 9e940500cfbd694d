"""Running one instance: its timed phases, the reference checks, failure accounting.

Only the engine calls of a phase are timed.  Each phase runs under a
SIGALRM wall-clock cap; an expiry, a raise or a result that disagrees
with its reference marks the phase, and so the instance, as failed.
Later phases of an instance run only when the phase they depend on
passed.  Failures are classified against `catalog.KNOWN_DEFECTS`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import reference as ref

OP_CAP_S = 30.0
DENSE_TOL = Fraction(1, 10**9)
CERTIFY_TOL = Fraction(1, 10**40)
DENSE_PREC = 40
CERTIFY_PREC = 90


class OpTimeout(BaseException):
    """Raised by the SIGALRM handler when an operation exceeds its cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


@dataclass
class Outcome:
    inst_id: str
    kind: str
    sizes: dict
    times_ms: dict = field(default_factory=dict)  # phase -> ms, passed phases only
    failures: list = field(default_factory=list)  # (phase, detail, known defect or None)
    digest: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


def fit_sizes(inst: dict) -> dict:
    """Instance size per phase for the log-log scaling fits (None: not fitted).

    chain: n on the size ladder (the oracle tier is excluded); dense: k of
    the scripted profiles; certify: the event budget of Zeno solves and n
    of the chain specs that `check` runs on.
    """
    if inst["workload"] == "chain":
        n = None if inst["oracle"] else inst["size"]
        return {"solve": n, "check": n}
    if inst["workload"] == "dense":
        return {"solve": inst["size"], "check": inst["size"]}
    if inst["kind"] == "zeno":
        return {"solve": inst["size"], "check": None}
    return {"solve": None, "check": inst["size"] if inst["kind"] == "spec" else None}


class Run:
    """Times the phases of one instance and records their verdicts."""

    def __init__(self, inst: dict):
        self.out = Outcome(inst["id"], inst["kind"], fit_sizes(inst))
        self._digest = hashlib.sha256()

    def phase(self, name: str, call: Callable, verify: Callable,
              classify: Callable = lambda detail: None):
        """Time `call()`, then check its result; returns it when the phase passed."""
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        start = time.perf_counter()
        try:
            result = call()
            elapsed = time.perf_counter() - start
        except OpTimeout:
            return self._fail(name, f"timeout after {OP_CAP_S:.0f} s", classify)
        except Exception as e:  # noqa: BLE001 - any raise is a counted failure
            return self._fail(name, f"raise {type(e).__name__}: {e}"[:300], classify)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        detail, fingerprint = verify(result)
        self._digest.update(f"{name}:{fingerprint}".encode())
        if detail is not None:
            return self._fail(name, detail, classify)
        self.out.times_ms[name] = elapsed * 1000.0
        return result

    def _fail(self, name, detail, classify):
        self._digest.update(f"{name}:FAIL:{detail}".encode())
        self.out.failures.append((name, detail, classify(detail)))
        return None

    def done(self) -> Outcome:
        self.out.digest = self._digest.hexdigest()
        return self.out


def _fp(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _payoff_negative_lo(spec: dict):
    lo = ref.F(spec["domain"].get("lo", 0))

    def classify(detail: str):
        if lo < 0 and "exp_neg_enclosure requires x >= 0" in detail:
            return "payoff_negative_lo"
        return None
    return classify


def _zero_hold(spec: dict):
    lo, hi = ref.F(spec["domain"]["lo"]), ref.F(spec["domain"]["hi"])

    def classify(detail: str):
        if lo < 0 <= hi and "repeats an instantaneous hold" in detail:
            return "dense_walk_zero_hold"
        return None
    return classify


def _int_str_limit(detail: str):
    return ("payoff_int_str_limit"
            if "Exceeds the limit" in detail and "integer string conversion" in detail
            else None)


# -- chain --------------------------------------------------------------------


def run_chain(inst: dict, tt) -> Outcome:
    run = Run(inst)
    text = json.dumps(inst["spec"])
    want = ref.chain_reference(inst["spec"])
    st = {}

    def solve():
        spec = tt.parse_spec(text)
        profile = tt.build_profile(spec)
        pfx = tt.empty_prefix(spec.domain, spec.players)
        st.update(spec=spec, profile=profile, pfx=pfx)
        return tt.solve_chain(profile, pfx)

    def verify_solve(res):
        if res.outcome != "unique":
            return f"outcome {res.outcome}", res.outcome
        rows = ref.history_rows(res.history)
        return ref.check_chain(rows, want), _fp(rows)

    res = run.phase("solve", solve, verify_solve)
    if res is None:
        return run.done()
    h = res.history

    def check():
        rep = tt.is_consistent(h, st["profile"])
        orc = (tt.oracle_enumerate(st["profile"], st["pfx"], st["spec"].alphabets)
               if inst["oracle"] else None)
        return rep, orc

    def verify_check(result):
        rep, orc = result
        fp = (rep.consistent, rep.method, None if orc is None else orc.count)
        if rep.consistent is not True:
            return f"is_consistent says {rep.consistent}: {rep.diagnosis}", fp
        if orc is not None:
            if orc.count != 1:
                return f"oracle finds {orc.count} consistent histories", fp
            bad = ref.check_chain(ref.history_rows(orc.histories[0]), want)
            if bad:
                return f"oracle survivor: {bad}", fp
        return None, fp

    run.phase("check", check, verify_check)
    pay = ref.chain_payoff(inst["spec"], want)

    def verify_payoff(vec):
        got = {p: (vec.lo[p], vec.hi[p]) for p in vec.players}
        if got != {p: (v, v) for p, v in pay.items()}:
            return "chain payoff differs from the Fraction sum", _fp(got)
        return None, _fp(got)

    run.phase("payoff", lambda: tt.evaluate_payoff(h, st["spec"]), verify_payoff)
    return run.done()


# -- dense --------------------------------------------------------------------


def _dense_reference(inst: dict) -> list[list[ref.Row]]:
    spec = inst["spec"]
    lo, hi = ref.F(spec["domain"]["lo"]), ref.F(spec["domain"]["hi"])
    scripts = {p: ref.parse_rows(rows) for p, rows in inst.get("scripts", {}).items()}
    if inst["kind"] == "scripted":
        return [scripts["p1"], scripts["p2"]]
    delta = ref.F(spec["strategies"][0]["delta"])
    if inst["kind"] == "duel":
        return [ref.grim_rows(lo, hi, delta, None)] * 2
    return [ref.grim_rows(lo, hi, delta, ref.first_trigger(scripts["p2"])), scripts["p2"]]


def run_dense(inst: dict, tt) -> Outcome:
    run = Run(inst)
    spec_json = inst["spec"]
    text = json.dumps(spec_json)
    want = _dense_reference(inst)
    scripts = {p: ref.parse_rows(rows) for p, rows in inst.get("scripts", {}).items()}
    st = {}

    def solve():
        spec = tt.parse_spec(text)
        profile = tt.build_profile(spec)
        for i, p in enumerate(spec.players):
            if p in scripts:
                pieces = [(tt.Interval(lo, hi, lc, hc), a) for lo, hi, lc, hc, a in scripts[p]]
                profile[i] = tt.make_scripted(p, spec.domain, pieces)
        pfx = tt.empty_prefix(spec.domain, spec.players)
        st.update(spec=spec, profile=profile, pfx=pfx)
        return tt.solve_dense(profile, pfx)

    def verify_solve(res):
        if res.outcome != "unique":
            return f"outcome {res.outcome}: {res.diagnosis}", res.outcome
        rows = ref.history_rows(res.history)
        return ref.check_rows(rows, want), _fp(rows)

    res = run.phase("solve", solve, verify_solve)
    if res is None:
        return run.done()

    def check():
        verified = tt.verify_unique(st["profile"], st["pfx"], res)
        return verified, tt.is_consistent(res.history, st["profile"])

    def verify_check(result):
        verified, rep = result
        fp = (verified, rep.consistent, rep.method)
        if verified is not True:
            return "verify_unique rejects a history that matches the reference", fp
        if rep.consistent is not True:
            return f"is_consistent says {rep.consistent}: {rep.diagnosis}", fp
        return None, fp

    run.phase("check", check, verify_check, _zero_hold(spec_json))
    expect, err = ref.dense_payoff(spec_json, want, DENSE_PREC)

    def verify_payoff(vec):
        got = {p: (vec.lo[p], vec.hi[p]) for p in vec.players}
        for p, (lo, hi) in got.items():
            bad = ref.check_enclosure(lo, hi, expect[p], err, DENSE_TOL)
            if bad:
                return f"{p}: {bad}", _fp(got)
        return None, _fp(got)

    run.phase("payoff", lambda: tt.evaluate_payoff(res.history, st["spec"], tol=DENSE_TOL),
              verify_payoff, _payoff_negative_lo(spec_json))
    return run.done()


# -- certify ------------------------------------------------------------------


def rows_to_json(rows) -> list[dict]:
    return [{"lo": lo, "hi": hi, "lo_closed": lc, "hi_closed": hc, "action": a}
            for lo, hi, lc, hc, a in rows]


def certify_files(inst: dict, workdir: Path) -> dict:
    """Write the instance's input files; returns the argv placeholders."""
    paths = {"spec": workdir / f"{inst['id']}-spec.json",
             "history": workdir / f"{inst['id']}-history.json"}
    if "spec" in inst:
        paths["spec"].write_text(json.dumps(inst["spec"]), encoding="utf-8")
    if "history" in inst:
        hist = {p: rows_to_json(rows) for p, rows in inst["history"].items()}
        paths["history"].write_text(json.dumps(hist), encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


def _cli(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _grim_constant_history(spec: dict) -> list[list[ref.Row]]:
    """Closed-form history of a dense certify spec built from grim and constant."""
    lo, hi = ref.F(spec["domain"]["lo"]), ref.F(spec["domain"]["hi"])
    rows = []
    strategies = spec["strategies"]
    for i, s in enumerate(strategies):
        if s["kind"] == "constant":
            rows.append([(lo, hi, True, True, s["action"])])
        else:
            other = strategies[1 - i]
            defects = other["kind"] == "constant" and other["action"] != s["cooperate"]
            rows.append(ref.grim_rows(lo, hi, ref.F(s["delta"]), lo if defects else None))
    return rows


def run_certify(inst: dict, cli, files: dict) -> Outcome:
    run = Run(inst)
    cmds = {ph: [a.format(**files) for a in argv] for ph, argv in inst["commands"].items()}
    spec = inst.get("spec")
    seq = ref.chain_reference(spec) if spec and spec["domain"]["kind"] == "chain" else None
    if inst["kind"] == "payoff":
        want = [ref.parse_rows(inst["history"][p["id"]]) for p in spec["players"]]
    elif inst["kind"] == "spec" and seq is None and "solve" in cmds:
        want = _grim_constant_history(spec)

    def verify_json(verify):
        def inner(result):
            code, out, err = result
            try:
                obj = json.loads(out)
            except ValueError:
                return f"exit {code}, no JSON on stdout: {err.strip()[-200:]}", (code, err)
            return verify(code, obj), (code, _fp(out))
        return inner

    if "solve" in cmds:
        def verify_solve(code, obj):
            if inst["kind"] == "zeno":
                hi = ref.F(spec["domain"]["hi"])
                if code != 4 or obj.get("outcome") != "zeno":
                    return f"zeno spec: exit {code}, outcome {obj.get('outcome')}"
                if obj.get("accumulation") is None or ref.F(obj["accumulation"]) != hi:
                    return f"accumulation {obj.get('accumulation')} != hi {hi}"
                return None
            if code != 0 or obj.get("outcome") != "unique":
                return f"exit {code}, outcome {obj.get('outcome')}"
            got = [ref.parse_rows(obj["history"][p["id"]]) for p in spec["players"]]
            return ref.check_chain(got, seq) if seq else ref.check_rows(got, want)

        if run.phase("solve", lambda: _cli(cli, cmds["solve"]),
                     verify_json(verify_solve)) is None:
            return run.done()

    if "check" in cmds:
        family = inst["family"]

        def verify_check(code, obj):
            if inst["kind"] == "gallery":
                return f"exit {code}" if code != 0 else ref.check_gallery(family, obj)
            return "; ".join(ref.check_verdicts(family, obj, code)) or None

        def classify_check(detail: str):
            # multi's axiom 3 mismatch is the known self-comparison defect,
            # provided nothing else in the report is wrong
            if family == "gallery multi" and detail.count("theory says") == 1 \
                    and "axiom 3 player 1: passed=True" in detail:
                return "axiom3_self_compare"
            return None

        run.phase("check", lambda: _cli(cli, cmds["check"]), verify_json(verify_check),
                  classify_check)

    if "payoff" in cmds:
        def verify_payoff(code, obj):
            if code != 0:
                return f"exit {code}"
            got = {p: (ref.F(v["lo"]), ref.F(v["hi"])) for p, v in obj.items()}
            if seq:
                exact = ref.chain_payoff(spec, seq)
                ok = got == {p: (v, v) for p, v in exact.items()}
                return None if ok else "chain payoff differs from the Fraction sum"
            expect, err = ref.dense_payoff(spec, want, CERTIFY_PREC)
            for p, (lo, hi) in got.items():
                bad = ref.check_enclosure(lo, hi, expect[p], err, CERTIFY_TOL)
                if bad:
                    return f"{p}: {bad}"
            return None

        run.phase("payoff", lambda: _cli(cli, cmds["payoff"]), verify_json(verify_payoff),
                  _int_str_limit)
    return run.done()
