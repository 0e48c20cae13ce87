"""The benchmark's three workloads as lists of ``tcpp`` command lines.

A workload is one *round*: a fixed list of calls, each with its answer
check.  A run repeats the round, so every round does the same work.  Each
workload gives every command exactly one problem shape, so a per-command
median describes a single size:

* the round holds the commands the workload is about, on its own large
  markets;
* the workload's known-failure rows run once per run, after the rounds
  (see ``run.py``).  They are data: they are not timed, and they do not
  count as attempted or failed operations;
* every other command has one call on ``small`` (trinomial H=2, 2
  entries), run after the rounds in a short phase of its own (see
  ``run.py``), only because every result must carry all twelve
  end-to-end metrics.  The same small calls, one per command, are the
  warm-up.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import gen

COMMANDS = ("price", "extends", "constrained", "bounds_mme", "bounds_calibrated",
            "bounds_good_deal", "calibrate", "nfl", "american", "check_tcpp")
WORKLOADS = ("deep-book", "spread-bounds", "certify-small")


@dataclass(frozen=True)
class KnownFailure:
    """A call that fails on the seed commit, kept as a row of data."""

    workload: str
    command: str
    shape: str
    kind: str               # exception class name
    exit: int | None        # exit code, None when the exception escapes main
    note: str


KNOWN_FAILURES = (
    KnownFailure("deep-book", "nfl", "binomial H=10, 3 entries", "EnumerationOverflow", 2,
                 "3^1023 selections; the ROADMAP item-2 target"),
    KnownFailure("deep-book", "american", "binomial H=10, 3 entries", "EnumerationOverflow", 2,
                 "stopping-time enumeration; the ROADMAP item-2 target"),
    KnownFailure("deep-book", "check_tcpp", "binomial H=6, 2 entries", "EnumerationOverflow", 2,
                 "2^63 selections, reached after the axiom checks"),
    KnownFailure("spread-bounds", "bounds_good_deal", "trinomial H=4, cap 1.1",
                 "NumericalBreakdown", 2, "a cut LP returns a point off by about 3e-2"),
    KnownFailure("certify-small", "nfl", "binomial H=4, 2 entries", "MemoryError", None,
                 "32768-selection dense LP under the benchmark's 2 GiB address-space cap"),
)

LEFT_OUT = (
    {"command": "bounds --kind good-deal --good-deal-cap 1.1", "shape": "trinomial H=5",
     "why": "runs 81-245 s before NumericalBreakdown, longer than one run may take"},
    {"command": "bounds --kind mme", "shape": "binomial H=10",
     "why": "one call takes about 20 s"},
)


@dataclass
class Call:
    key: str                           # one of COMMANDS
    argv: list[str]
    check: Callable[[int | None, dict], str | None]
    shape: str
    known: KnownFailure | None = None
    counts: dict[str, int] = field(default_factory=dict)   # exact trace counts per call


class Inputs:
    """Writes one workload's files under ``root`` and builds its calls."""

    def __init__(self, root: str, refs: checks.References):
        self.root = root
        self.refs = refs

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def market(self, name: str, market: gen.Market) -> str:
        return gen.write_market(self.path(name + ".market"), market)

    def values(self, name: str, values: dict[int, float]) -> str:
        return gen.write_values(self.path(name), values)


def _argv(cmd: str, market: str, *extra: str) -> list[str]:
    return [cmd, "--market", market, *extra, "--format", "machine"]


def _probe_claims(levels: checks.Levels, rng: np.random.Generator) -> np.ndarray:
    nl = len(levels.leaves)
    return np.vstack([np.eye(nl), rng.uniform(-1.0, 1.0, (4, nl))])


def _price(inp: Inputs, market: gen.Market, mfile: str, name: str, claim_name: str,
           cut: str, shape: str) -> Call:
    tree = market.tree
    claim = gen.grid_claim(tree, market.asset, claim_name)
    levels = checks.Levels(tree, market.data.model)
    x = np.array([claim.values[b] for b in tree.leaves])
    ask, bid = levels.menu_max(x), -levels.menu_max(-x)
    nodes = [tree.root] if cut == "root" else list(tree.nodes_at(int(cut[2:])))
    cfile = inp.values(name, claim.values)
    return Call("price", _argv("price", mfile, "--claim", cfile, "--at", cut),
                checks.price_checker(ask, bid, nodes), shape)


def _constrained(inp: Inputs, market: gen.Market, mfile: str, name: str,
                 claim_name: str, shape: str) -> Call:
    tree = market.tree
    claim = gen.grid_claim(tree, market.asset, claim_name)
    levels = checks.Levels(tree)
    asset = np.array([market.asset[v] for v in range(tree.n_nodes)])
    verts = np.array(market.data.constraint_set.vertices)
    want = checks.constrained_value(levels, asset, verts,
                                    np.array([claim.values[b] for b in tree.leaves]))
    cfile = inp.values(name, claim.values)
    return Call("constrained", _argv("constrained", mfile, "--claim", cfile),
                checks.value_checker(want), shape,
                counts={"market.constrained.lp_solves": len(tree.internal_nodes()) + 1})


def _american(inp: Inputs, market: gen.Market, mfile: str, name: str,
              process: dict[int, float], shape: str, stop_sets: int | None) -> Call:
    tree = market.tree
    levels = checks.Levels(tree, market.data.model)
    proc = np.array([process[v] for v in range(tree.n_nodes)])
    snell = float(levels.menu_max(proc[levels.leaves], proc)[tree.root])
    pfile = inp.values(name, process)
    counts = {} if stop_sets is None else {"pricing.stop_sets.enumerated": stop_sets}
    return Call("american", _argv("american", mfile, "--claim", pfile),
                checks.american_checker(snell), shape, counts=counts)


def _nfl(market: gen.Market, mfile: str, free_lunch: bool, shape: str,
         rng: np.random.Generator) -> Call:
    levels = checks.Levels(market.tree, market.data.model)
    return Call("nfl", _argv("nfl", mfile),
                checks.nfl_checker(levels, free_lunch, _probe_claims(levels, rng)), shape)


def _check_tcpp(mfile: str, shape: str) -> Call:
    return Call("check_tcpp", _argv("check-tcpp", mfile), checks.checks_pass, shape,
                counts={"scenario.selections.enumerated": 9})


def _bounds(inp: Inputs, market: gen.Market, mfile: str, shape: str, claim_name: str,
            kind: str, cap: str | None = None, known: KnownFailure | None = None) -> Call:
    claim = gen.grid_claim(market.tree, market.asset, claim_name)
    cfile = inp.values(f"{shape}-{claim_name.replace(':', '_')}.claim", claim.values)
    extra = ["--claim", cfile, "--kind", kind]
    if cap is not None:
        extra += ["--good-deal-cap", cap]
    outer = None if kind == "mme" else inp.refs.get(shape, claim_name, "mme")
    refs = None if known is not None else inp.refs
    return Call("bounds_" + kind.replace("-", "_"), _argv("bounds", mfile, *extra),
                checks.bounds_checker(refs, shape, claim_name, kind, outer), shape,
                known=known)


def _calibrate(market: gen.Market, mfile: str, shape: str) -> Call:
    tree = market.tree
    levels = checks.Levels(tree)
    asset = np.array([market.asset[v] for v in range(tree.n_nodes)])
    quotes = [(np.array([q.payoff.values[b] for b in tree.leaves]), q.bid, q.ask)
              for q in market.data.quotes]
    return Call("calibrate", _argv("calibrate", mfile),
                checks.calibrate_checker(levels, asset, quotes), shape)


def small_calls(inp: Inputs, rng: np.random.Generator) -> dict[str, Call]:
    """One call of every command on the small shape (trinomial H=2)."""
    shape = "small"
    market = gen.trinomial_market(rng, 2, 2)
    mfile = inp.market(shape, market)
    claim_name = gen.QUOTED     # one claim: good-deal cut rounds differ by claim
    put = {v: max(1.0 - s, 0.0) for v, s in market.asset.items()}
    calls = [
        _price(inp, market, mfile, "small.claim", claim_name, "root", shape),
        Call("extends", _argv("extends", mfile), checks.checks_pass, shape),
        _constrained(inp, market, mfile, "small-c.claim", claim_name, shape),
        _calibrate(market, mfile, shape),
        _nfl(market, mfile, False, shape, rng),
        _american(inp, market, mfile, "small.process", put, shape, 9),
        _check_tcpp(mfile, shape),
    ] + [_bounds(inp, market, mfile, shape, claim_name, kind)
         for kind in ("mme", "calibrated", "good-deal")]
    return {c.key: c for c in calls}


def _known(workload: str, command: str) -> KnownFailure:
    return next(k for k in KNOWN_FAILURES if k.workload == workload and k.command == command)


def deep_book(inp: Inputs, rng: np.random.Generator) -> list[Call]:
    """Binomial H=12 (8191 nodes, 3 entries): tree, market-file and pricing
    layers.  ``constrained`` solves one tiny LP per internal node."""
    shape = "binomial H=12, 3 entries"
    market = gen.deep_market(rng, 12, 3)
    mfile = inp.market("deep", market)
    calls = []
    for i, cut in enumerate(("root", "t:6", "t:10")):
        kind = ("call", "put", "digital")[i]
        name = f"{kind}:{float(rng.uniform(0.8, 1.25))!r}"
        calls.append(_price(inp, market, mfile, f"deep-{i}.claim", name, cut, shape))
    # each twice: one 1-2.5 s sample per round is too few for a steady median
    extends = Call("extends", _argv("extends", mfile), checks.checks_pass, shape)
    constrained = _constrained(inp, market, mfile, "deep-c.claim", "call:1", shape)
    calls += [extends, constrained, extends, constrained]

    big = gen.deep_market(rng, 10, 3)
    bfile = inp.market("deep10", big)
    put = {v: max(1.0 - s, 0.0) for v, s in big.asset.items()}
    nfl = _nfl(big, bfile, False, "binomial H=10, 3 entries", rng)
    nfl.known = _known("deep-book", "nfl")
    amer = _american(inp, big, bfile, "deep10.process", put, nfl.shape, None)
    amer.known = _known("deep-book", "american")
    mid = inp.market("deep6", gen.random_market(rng, 6, 2))
    chk = Call("check_tcpp", _argv("check-tcpp", mid), checks.checks_pass,
               "binomial H=6, 2 entries", known=_known("deep-book", "check_tcpp"))
    return calls + [nfl, amer, chk]


def spread_bounds(inp: Inputs, rng: np.random.Generator) -> list[Call]:
    """Trinomial H=5 (364 nodes, 243 leaves): one large dense LP per bound,
    cut rounds for good-deal; ``lp.solve`` is nearly all of the time."""
    shape = "spread"
    market = gen.trinomial_market(rng, 5, 2)
    mfile = inp.market(shape, market)
    calls = [_bounds(inp, market, mfile, shape, name, kind)
             for name in gen.GRID for kind in ("mme", "calibrated", "good-deal")]
    calls = [calls[i] for i in rng.permutation(len(calls))]
    calls += [_calibrate(market, mfile, shape)] * 2
    t4 = gen.trinomial_market(rng, 4, 2)
    calls.append(_bounds(inp, t4, inp.market("tri4", t4), "tri4", gen.QUOTED, "good-deal",
                         cap="1.1", known=_known("spread-bounds", "bounds_good_deal")))
    return calls


def certify_small(inp: Inputs, rng: np.random.Generator) -> list[Call]:
    """The exponential paths inside the cap: ``nfl`` over 3^7 = 2187
    selections, ``american`` over 677 stopping times per root."""
    calls = []
    for i, killed in enumerate((False, True)):
        market = gen.random_market(rng, 3, 3, killed=killed)
        calls.append(_nfl(market, inp.market(f"nfl{i}", market), killed,
                          "binomial H=3, 3 entries", rng))
        calls[-1].counts = {"scenario.duals.enumerated": 2187 * (2 if killed else 3)}
    shape = "binomial H=4, 2 entries"
    first = None
    for i in range(4):
        market = gen.random_market(rng, 4, 2)
        mfile = inp.market(f"amer{i}", market)
        first = first or (market, mfile)
        calls.append(_american(inp, market, mfile, f"amer{i}.process",
                               gen.random_process(rng, market.tree), shape, 677))
        calls.append(_check_tcpp(mfile, shape))
    probe = _nfl(first[0], first[1], False, shape, rng)
    probe.known = _known("certify-small", "nfl")
    return calls + [probe]


MAIN = {
    "deep-book": (deep_book, ("price", "extends", "constrained")),
    "spread-bounds": (spread_bounds, ("bounds_mme", "bounds_calibrated",
                                      "bounds_good_deal", "calibrate")),
    "certify-small": (certify_small, ("nfl", "american", "check_tcpp")),
}


def build(workload: str, seed: int, root: str, refs: checks.References
          ) -> tuple[list[Call], list[Call], list[Call], list[Call]]:
    """The workload's round, its side calls (the commands the round does not
    run, on the small shape), its known-failure rows and the warm-up calls
    (every command, small)."""
    builder, main_keys = MAIN[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inp = Inputs(root, refs)
    small = small_calls(inp, rng)
    calls = builder(inp, rng)
    side = [small[k] for k in COMMANDS if k not in main_keys]
    return ([c for c in calls if c.known is None], side,
            [c for c in calls if c.known is not None], list(small.values()))
