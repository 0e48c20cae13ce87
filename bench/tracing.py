"""Per-layer tracing of ``tcpp`` from outside the library.

``Tracer.install`` wraps the public entry points of each module.  The
package binds imports per module (``from .lp import solve`` in
``scenario``, ``nfl`` and ``market``), so every ``tcpp`` module attribute
that refers to a wrapped function is replaced, not only the defining one.
Spans stay in memory as lists ``[id, parent, request, name, start, end,
info]`` and are written out when the run ends.  One ``tcpp.cli.main`` call
is one request.  Self time is a span's duration minus its child spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# name, unit of every per-layer metric; BENCHMARK.json lists the same
PER_LAYER = (
    ("tree.build.calls", "count"), ("tree.build.self_s", "s"),
    ("tree.build.us_per_node", "us"),
    ("tree.validate.calls", "count"), ("tree.validate.self_s", "s"),
    ("tree.validate.cut_nodes", "count"),
    ("tree.precedes.calls", "count"), ("tree.precedes.self_s", "s"),
    ("tree.condexp.calls", "count"), ("tree.condexp.self_s", "s"),
    ("marketfile.parse.calls", "count"), ("marketfile.parse.self_s", "s"),
    ("marketfile.parse.lines", "count"), ("marketfile.parse.us_per_line", "us"),
    ("marketfile.claim.calls", "count"), ("marketfile.claim.self_s", "s"),
    ("scenario.model.calls", "count"), ("scenario.model.self_s", "s"),
    ("scenario.model.entries", "count"),
    ("scenario.duals.calls", "count"), ("scenario.duals.self_s", "s"),
    ("scenario.duals.enumerated", "count"), ("scenario.selections.enumerated", "count"),
    ("scenario.min_penalty.calls", "count"), ("scenario.min_penalty.self_s", "s"),
    ("pricing.backward.calls", "count"), ("pricing.backward.self_s", "s"),
    ("pricing.backward.nodes", "count"), ("pricing.backward.us_per_node", "us"),
    ("pricing.price.calls", "count"), ("pricing.price.self_s", "s"),
    ("pricing.stop_sets.enumerated", "count"), ("pricing.american.self_s", "s"),
    ("pricing.axioms.self_s", "s"), ("pricing.time_consistency.self_s", "s"),
    ("pricing.sublinear.self_s", "s"),
    ("lp.solve.calls", "count"), ("lp.solve.self_s", "s"), ("lp.solve.ms_per_call", "ms"),
    ("lp.solve.rows", "count"), ("lp.solve.max_rows", "count"),
    ("lp.solve.max_cols", "count"), ("lp.solve.tableau_mb", "MiB"),
    ("lp.solve.optimal_ratio", "ratio"), ("lp.solve.breakdowns", "count"),
    ("nfl.static.self_s", "s"), ("nfl.measure.self_s", "s"), ("nfl.verdict.self_s", "s"),
    ("market.mme.self_s", "s"), ("market.calibrated.self_s", "s"),
    ("market.calibrate.self_s", "s"), ("market.good_deal.self_s", "s"),
    ("market.constrained.self_s", "s"), ("market.extends.self_s", "s"),
    ("market.good_deal.lp_solves", "count"), ("market.constrained.lp_solves", "count"),
    ("cli.self_s", "s"), ("cli.exit_0", "count"), ("cli.exit_1", "count"),
    ("cli.exit_2", "count"), ("cli.uncaught", "count"), ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"), ("trace.spans", "count"),
)


@functools.lru_cache(maxsize=None)
def _position(fn, name: str) -> int:
    return list(inspect.signature(fn).parameters).index(name)


def _arg(fn, args, kwargs, name):
    """Argument ``name`` of a call to ``fn``, however it was passed."""
    i = _position(fn, name)
    return args[i] if i < len(args) else kwargs[name]


def _lp_info(fn, args, kwargs, out):
    """Also called when ``solve`` raises (``out`` is None): the size of the
    program that failed is the point of the MemoryError row."""
    m, n = _arg(fn, args, kwargs, "lp").dims()
    # computed, not measured: a dense tableau with one slack column per row
    return {"rows": m, "cols": n, "tableau_mb": (m + 1) * (n + m + 1) * 8 / 2**20,
            "optimal": int(out is not None and out.status == "optimal")}


# module, attribute (Class.method for methods), span name, info(fn, args, kwargs, out)
TARGETS = (
    ("tcpp.tree", "FiltrationTree.__init__", "tree.build",
     lambda f, a, k, out: {"nodes": len(_arg(f, a, k, "times"))}),
    ("tcpp.tree", "validate_stopping_time", "tree.validate",
     lambda f, a, k, out: {"cut_nodes": len(_arg(f, a, k, "tau").cut)}),
    ("tcpp.tree", "precedes", "tree.precedes", None),
    ("tcpp.tree", "conditional_expectation", "tree.condexp", None),
    ("tcpp.marketfile", "parse_market_file", "marketfile.parse", None),
    ("tcpp.marketfile", "parse_claim_file", "marketfile.claim", None),
    ("tcpp.scenario", "ScenarioModel.__init__", "scenario.model",
     lambda f, a, k, out: {"entries": sum(map(len, a[0].menus.values()))}),
    ("tcpp.scenario", "subtree_duals", "scenario.duals",
     lambda f, a, k, out: {"enumerated": len(out)}),
    ("tcpp.scenario", "minimal_penalty", "scenario.min_penalty", None),
    ("tcpp.pricing", "backward_pass", "pricing.backward",
     lambda f, a, k, out: {"nodes": len(out) - len(_arg(f, a, k, "at").cut)}),
    ("tcpp.pricing", "price", "pricing.price", None),
    ("tcpp.pricing", "enumerate_stop_sets", "pricing.stop_sets",
     lambda f, a, k, out: {"enumerated": len(out)}),
    ("tcpp.pricing", "american_price", "pricing.american", None),
    ("tcpp.pricing", "check_axioms", "pricing.axioms", None),
    ("tcpp.pricing", "check_time_consistency", "pricing.time_consistency", None),
    ("tcpp.pricing", "check_sublinear", "pricing.sublinear", None),
    ("tcpp.lp", "solve", "lp.solve", _lp_info),
    ("tcpp.nfl", "find_static_free_lunch", "nfl.static", None),
    ("tcpp.nfl", "find_zero_penalty_equivalent_measure", "nfl.measure", None),
    ("tcpp.nfl", "nfl_verdict", "nfl.verdict", None),
    ("tcpp.market", "mme_bounds", "market.mme", None),
    ("tcpp.market", "calibrated_bounds", "market.calibrated", None),
    ("tcpp.market", "calibration_feasible", "market.calibrate", None),
    ("tcpp.market", "good_deal_bounds", "market.good_deal", None),
    ("tcpp.market", "constrained_price", "market.constrained", None),
    ("tcpp.market", "check_extends_dynamics", "market.extends", None),
    ("tcpp.cli", "main", "cli", lambda f, a, k, out: {"exit": out}),
)
# counted where consumed, on the innermost open span: text lines parsed and
# selections drawn from the enumerate_selections generator
COUNTERS = (
    ("tcpp.marketfile", "parse_market_text", "lines"),
    ("tcpp.scenario", "enumerate_selections", "selections"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, info):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.request, name,
                   clock(), 0.0, {}]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = clock()
                rec[6]["error"] = type(exc).__name__
                if info is _lp_info:
                    rec[6].update(info(fn, args, kwargs, None))
                raise
            finally:
                stack.pop()
            rec[5] = clock()
            if info is not None:
                rec[6].update(info(fn, args, kwargs, out))
            return out
        return wrapper

    def _add(self, key: str, n: int) -> None:
        if self.stack:
            info = self.spans[self.stack[-1]][6]
            info[key] = info.get(key, 0) + n

    def _counter(self, key, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self._add(key, 1)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add(key, _arg(fn, args, kwargs, "text").count("\n"))
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == "tcpp" or name.startswith("tcpp."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, new)

    def install(self) -> None:
        for module, attr, name, info in TARGETS:
            self._patch(module, attr, lambda f, n=name, i=info: self._span(n, f, i))
        for module, attr, key in COUNTERS:
            self._patch(module, attr, lambda f, k=key: self._counter(k, f))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._saved):
            setattr(obj, key, orig)
        self._saved.clear()

    # -- results ---------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[5] - rec[4]
        return [rec[5] - rec[4] - c for rec, c in zip(self.spans, child)]

    def request_counts(self) -> dict[int, Counter]:
        """Exact counts per call, under the names used in ``Call.counts``."""
        out: dict[int, Counter] = defaultdict(Counter)
        for rec in self.spans:
            counts, name, info = out[rec[2]], rec[3], rec[6]
            if name == "lp.solve" and rec[1] >= 0:
                parent = self.spans[rec[1]][3]
                if parent.startswith("market."):
                    counts[parent + ".lp_solves"] += 1
            if name in ("scenario.duals", "pricing.stop_sets"):
                counts[name + ".enumerated"] += info.get("enumerated", 0)
            counts["scenario.selections.enumerated"] += info.get("selections", 0)
        return out

    def metrics(self, phase: list[int], rounds: list[int],
                overhead_pct: float) -> dict[str, float]:
        """Per-layer metrics per round.  Request ``i`` belongs to phase
        ``phase[i]``, which ran ``rounds[phase]`` rounds; a round here is one
        round of every phase (the workload's round, one side round and the
        known-failure rows).
        Totals are summed per phase in integers or seconds and divided by
        that phase's rounds, so counts repeat exactly whatever the number
        of rounds a run makes."""
        selfs = self.self_times()
        totals = [defaultdict(float) for _ in rounds]
        maxima = defaultdict(float)
        for rec, st in zip(self.spans, selfs):
            t, name, data = totals[phase[rec[2]]], rec[3], rec[6]
            t[name + ".calls"] += 1
            t[name + ".self_s"] += st
            t["spans"] += 1
            for key, val in data.items():
                if key == "error":
                    t[f"{name}.error.{val}"] += 1
                elif key != "exit":
                    t[f"{name}.{key}"] += val
                    maxima[f"{name}.{key}"] = max(maxima[f"{name}.{key}"], val)
            if name == "lp.solve" and rec[1] >= 0:
                t[self.spans[rec[1]][3] + ".lp_solves"] += 1
            if name == "cli":
                t[f"cli.exit_{data.get('exit', 'uncaught')}"] += 1
        tot = defaultdict(float)
        for t, r in zip(totals, rounds):
            for key, val in t.items():
                tot[key] += val / r
        m = {}
        for name in ("tree.build", "tree.validate", "tree.precedes", "tree.condexp",
                     "marketfile.parse", "marketfile.claim", "scenario.model",
                     "scenario.duals", "scenario.min_penalty", "pricing.backward",
                     "pricing.price", "lp.solve"):
            m[name + ".calls"] = tot[name + ".calls"]
        for name in ("tree.build", "tree.validate", "tree.precedes", "tree.condexp",
                     "marketfile.parse", "marketfile.claim", "scenario.model",
                     "scenario.duals", "scenario.min_penalty", "pricing.backward",
                     "pricing.price", "lp.solve", "pricing.american", "pricing.axioms",
                     "pricing.time_consistency", "pricing.sublinear", "nfl.static",
                     "nfl.measure", "nfl.verdict", "market.mme", "market.calibrated",
                     "market.calibrate", "market.good_deal", "market.constrained",
                     "market.extends", "cli"):
            m[name + ".self_s"] = tot[name + ".self_s"]
        m["tree.build.us_per_node"] = _per(tot["tree.build.self_s"], tot["tree.build.nodes"], 1e6)
        m["tree.validate.cut_nodes"] = tot["tree.validate.cut_nodes"]
        m["marketfile.parse.lines"] = tot["marketfile.parse.lines"]
        m["marketfile.parse.us_per_line"] = _per(tot["marketfile.parse.self_s"],
                                                 tot["marketfile.parse.lines"], 1e6)
        m["scenario.model.entries"] = tot["scenario.model.entries"]
        m["scenario.duals.enumerated"] = tot["scenario.duals.enumerated"]
        m["scenario.selections.enumerated"] = sum(v for k, v in tot.items()
                                                  if k.endswith(".selections"))
        m["pricing.backward.nodes"] = tot["pricing.backward.nodes"]
        m["pricing.backward.us_per_node"] = _per(tot["pricing.backward.self_s"],
                                                 tot["pricing.backward.nodes"], 1e6)
        m["pricing.stop_sets.enumerated"] = tot["pricing.stop_sets.enumerated"]
        m["lp.solve.ms_per_call"] = _per(tot["lp.solve.self_s"], tot["lp.solve.calls"], 1e3)
        m["lp.solve.rows"] = tot["lp.solve.rows"]
        m["lp.solve.max_rows"] = maxima["lp.solve.rows"]
        m["lp.solve.max_cols"] = maxima["lp.solve.cols"]
        m["lp.solve.tableau_mb"] = maxima["lp.solve.tableau_mb"]
        m["lp.solve.optimal_ratio"] = _per(tot["lp.solve.optimal"], tot["lp.solve.calls"], 1.0)
        m["lp.solve.breakdowns"] = tot["lp.solve.error.NumericalBreakdown"]
        m["market.good_deal.lp_solves"] = tot["market.good_deal.lp_solves"]
        m["market.constrained.lp_solves"] = tot["market.constrained.lp_solves"]
        for code in (0, 1, 2):
            m[f"cli.exit_{code}"] = tot[f"cli.exit_{code}"]
        m["cli.uncaught"] = tot["cli.exit_uncaught"]
        m["trace.overhead_pct"] = overhead_pct
        m["trace.spans"] = tot["spans"]
        return m

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start", "end", "info"],
                       "spans": self.spans}, fh)


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0
