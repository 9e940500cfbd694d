"""Span tracing of the engine's layers from outside the engine.

`Tracer.install()` replaces each public function of the nine layer
modules with a recording wrapper at every module attribute it is bound
to (so `totime.histories.prefix` and `totime.axioms.history_prefix` are
both wrapped), wraps the `contains` methods of the time-order classes and
`PiecewiseHistory.build`/`eval`/`change_times`, and wraps the `respond` and
`chain_respond` callables of every `Strategy` built while installed.
`uninstall()` puts every original back.

A span is (name, parent span, instance, start, end).  The first
`SPAN_CAP` spans are kept in compact arrays and written by `write_spans`;
per-name call counts and self time (duration minus the time covered by
child spans) are accumulated for every span, kept or not.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

from .catalog import LAYERS

SPAN_CAP = 250_000
CLASS_METHODS = {
    "timeorder": {"Interval": ("contains",), "IntervalSet": ("contains",),
                  "FiniteChain": ("contains",), "DenseInterval": ("contains",)},
    "histories": {"PiecewiseHistory": ("build", "eval", "change_times"),
                  "HistoryPrefix": ("eval",)},
}
QUERY_NAMES = ("strategies.respond", "strategies.chain_respond")


def _pieces(prefix) -> int:
    return sum(len(pp) for pp in prefix.per_player)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        # per instance: [pieces materialised by prefix/seq_to_prefix, strategy queries]
        self.per_instance: dict[int, list] = defaultdict(lambda: [0, 0])
        self.instance = 0
        self._stack: list[list] = []  # [name id, start, child time, span index]
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_inst = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.spans_dropped = 0
        self._patches: list[tuple] = []
        self._query_ids: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name: str, fn, post=None):
        nid = self._name_id(name)
        if name in QUERY_NAMES:
            self._query_ids.add(nid)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if len(tracer.span_start) < SPAN_CAP:
                idx = len(tracer.span_start)
                tracer.span_name.append(nid)
                tracer.span_parent.append(parent[3] if parent else -1)
                tracer.span_inst.append(tracer.instance)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                idx = -1
                tracer.spans_dropped += 1
            frame = [nid, clock(), 0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if idx >= 0:
                    tracer.span_start[idx] = frame[1]
                    tracer.span_end[idx] = end
            if post is not None:
                post(result, args, parent)
            return result

        traced._perfbench_traced = True
        return traced

    # -- post hooks: counts measured where the work happens -----------------

    def _count_pieces(self, key):
        def post(result, args, parent):
            n = _pieces(result)
            self.counters[key] += n
            self.per_instance[self.instance][0] += n
        return post

    def _count_query(self, result, args, parent):
        if parent is None or parent[0] not in self._query_ids:
            self.counters["strategy_queries"] += 1
            self.per_instance[self.instance][1] += 1

    def _count_events(self, result, args, parent):
        self.counters["solver.events"] += result.events_consumed

    def _count_rerun(self, verify_id):
        def post(result, args, parent):
            self.counters["solver.events"] += result.events_consumed
            if parent is not None and parent[0] == verify_id:
                self.counters["solver.verify.reruns"] += 1
        return post

    def _count_checked(self, result, args, parent):
        self.counters["axioms.checked"] += result.checked

    def _count_changes(self, result, args, parent):
        h = args[0]
        self.counters["payoff.change_times"] += len(
            {x for pp in h.per_player for iv, _ in pp for x in (iv.lo, iv.hi)})

    def _posts(self) -> dict:
        verify_id = self._name_id("solver.verify_unique")
        return {
            "histories.prefix": self._count_pieces("histories.prefix.pieces"),
            "solver.seq_to_prefix": self._count_pieces("solver.seq_to_prefix.pieces"),
            "solver.solve_chain": self._count_events,
            "solver.solve_dense": self._count_rerun(verify_id),
            "axioms.is_consistent": self._count_checked,
            "gamespec.evaluate_payoff": self._count_changes,
            "strategies.respond": self._count_query,
            "strategies.chain_respond": self._count_query,
        }

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("totime")
        mods = {layer: importlib.import_module(f"totime.{layer}") for layer in LAYERS}
        sites = [pkg, importlib.import_module("totime.errors"), *mods.values()]
        posts = self._posts()
        replace = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replace[id(value)] = (value, self.wrap(name, value, posts.get(name)))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    short = "build" if meth == "build" else f"{cls_name}.{meth}"
                    wrapped = self.wrap(f"{layer}.{short}", fn)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    self._patch(cls, meth, wrapped)
        for site in sites:
            for attr, value in list(vars(site).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(site, attr, hit[1])
        self._patch_strategy(mods["strategies"].Strategy, posts)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch_strategy(self, cls, posts) -> None:
        tracer = self

        def traced_setattr(obj, attr, value):
            if attr in ("respond", "chain_respond") and callable(value) \
                    and not getattr(value, "_perfbench_traced", False):
                name = f"strategies.{attr}"
                value = tracer.wrap(name, value, posts[name])
            object.__setattr__(obj, attr, value)

        self._patch(cls, "__setattr__", traced_setattr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def metrics(self, instances: int) -> dict:
        """Per-layer metrics per traced instance (the size fits are added by the caller)."""
        per = max(1, instances)
        names_in = lambda layer: [n for n in self.names if n.startswith(layer + ".")]
        contains = [n for n in names_in("timeorder") if n.endswith(".contains")]
        c = self.counters
        queries = c["strategy_queries"]
        pieces = c["histories.prefix.pieces"] + c["solver.seq_to_prefix.pieces"]
        enclosures = self._calls("gamespec.exp_neg_enclosure")
        out = {
            "timeorder.intersect.calls": self._calls("timeorder.intersect") / per,
            "timeorder.make_interval.calls": self._calls("timeorder.make_interval") / per,
            "timeorder.contains.calls": self._calls(*contains) / per,
            "histories.prefix.calls": self._calls("histories.prefix") / per,
            "histories.prefix.pieces": c["histories.prefix.pieces"] / per,
            "histories.build.calls": self._calls("histories.build") / per,
            "histories.pieces_per_query": pieces / queries if queries else 0.0,
            "strategies.respond.calls": self._calls("strategies.respond") / per,
            "strategies.chain_respond.calls": self._calls("strategies.chain_respond") / per,
            "solver.events": c["solver.events"] / per,
            "solver.seq_to_prefix.calls": self._calls("solver.seq_to_prefix") / per,
            "solver.seq_to_prefix.pieces": c["solver.seq_to_prefix.pieces"] / per,
            "solver.verify.reruns": c["solver.verify.reruns"] / per,
            "axioms.is_consistent.calls": self._calls("axioms.is_consistent") / per,
            "axioms.checked": c["axioms.checked"] / per,
            "partitions.calls": self._calls(*names_in("partitions")) / per,
            "gamespec.exp_neg_enclosure.calls": enclosures / per,
            "gamespec.enclosure_rounds": (enclosures / c["payoff.change_times"]
                                          if c["payoff.change_times"] else 0.0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in zip(self.names, self.self_s)
                if name.split(".", 1)[0] == layer) / per
        return out

    def summary(self) -> dict:
        """Calls and self time per wrapped name, for the result file."""
        return {n: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for i, n in enumerate(self.names) if self.calls[i]}

    def write_spans(self, path: Path) -> dict:
        """Write kept spans as five columns in native byte order; returns their layout."""
        cols = (("name", self.span_name), ("parent", self.span_parent),
                ("instance", self.span_inst), ("start", self.span_start),
                ("end", self.span_end))
        with open(path, "wb") as f:
            for _, col in cols:
                col.tofile(f)
        return {"file": path.name, "count": len(self.span_start),
                "dropped": self.spans_dropped,
                "columns": [[n, c.typecode, c.itemsize] for n, c in cols],
                "names": self.names}


class _Missing:
    pass


_MISSING = _Missing()
