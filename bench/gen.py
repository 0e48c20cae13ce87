"""Seeded inputs for the tcpp benchmark: markets, claims and payoff processes.

Every builder takes a ``numpy.random.Generator`` made from the benchmark's
``--seed``; the same seed gives byte-identical files.  Values are coerced to
Python ``float`` before they reach ``serialize_market``: a numpy scalar
serializes as ``np.float64(...)``, which the market parser rejects as "not a
number".  That round-trip defect belongs to the library (ROADMAP item 5) and
is deliberately left open here; the coercion only keeps the benchmark's own
inputs valid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checks import Levels
from tcpp.market import AssetProcess, ConstraintSet, GoodDealCaps, QuotedOption
from tcpp.marketfile import MarketData, serialize_market
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.tree import Claim, FiltrationTree, StoppingTime

# Payoffs whose bounds are recorded in reference.json.  Bound inputs (tree,
# asset, quote band, caps) do not depend on the seed, so neither do the values.
GRID = ("call:0.5", "call:1", "call:1.6", "call:2.5", "digital:1")
TRI_FACTORS = (2.0, 1.0, 0.5)
# martingale kernels of TRI_FACTORS are (t, 1 - 3t, 2t); menus draw t here
T_LO, T_HI = 0.08, 0.24
QUOTED = "call:1"
GOOD_DEAL_CAP = 1.5


@dataclass
class Market:
    """A market document plus what the answer checks need to know about it."""

    data: MarketData
    asset: dict[int, float] | None = None

    @property
    def tree(self) -> FiltrationTree:
        return self.data.tree


def _weights(rng: np.random.Generator, n: int) -> list[float]:
    w = rng.dirichlet(np.full(n, 4.0)) + 0.2 / n
    w = [float(x) for x in w / w.sum()]
    w[-1] = 1.0 - sum(w[:-1])
    return w


def _menu(kernels_pens) -> list[MenuEntry]:
    return [MenuEntry(tuple(float(p) for p in k), float(a)) for k, a in kernels_pens]


def _penalties(rng: np.random.Generator, entries: int) -> list[float]:
    """First entry unpenalized (normalization), the rest exponential."""
    return [0.0] + [float(rng.exponential(0.2)) for _ in range(entries - 1)]


def deep_market(rng: np.random.Generator, periods: int, entries: int) -> Market:
    """Binomial tree with per-node up/down factors; every kernel reproduces
    the asset, menus differ by penalty, hedge vertices are +-1."""
    tree = FiltrationTree.binomial(periods, _weights(rng, 2 ** periods))
    s = {tree.root: 1.0}
    menus = {}
    for v in tree.internal_nodes():
        up, down = float(rng.uniform(1.05, 1.3)), float(rng.uniform(0.75, 0.95))
        c_up, c_down = tree.children[v]
        s[c_up], s[c_down] = s[v] * up, s[v] * down
        q = (1.0 - down) / (up - down)
        menus[v] = _menu(((q, 1.0 - q), a) for a in _penalties(rng, entries))
    asset = AssetProcess("S", dict(s))
    md = MarketData(tree, ScenarioModel(tree, menus), [asset],
                    constraint_set=ConstraintSet([(-1.0,), (1.0,)]))
    return Market(md, s)


def random_market(rng: np.random.Generator, periods: int, entries: int,
                  killed: bool = False) -> Market:
    """Binomial tree with Dirichlet kernels; ``killed`` zeroes one edge in
    every entry at one node, which makes the model a free lunch."""
    tree = FiltrationTree.binomial(periods, _weights(rng, 2 ** periods))
    menus = {}
    for v in tree.internal_nodes():
        kers = [rng.dirichlet((2.0, 2.0)) for _ in range(entries)]
        menus[v] = [(k, a) for k, a in zip(kers, _penalties(rng, entries))]
    if killed:
        v = int(rng.choice(tree.internal_nodes()))
        i = int(rng.integers(0, 2))
        menus[v] = [(np.eye(2)[1 - i], a) for _, a in menus[v]]
    menus = {v: _menu(m) for v, m in menus.items()}
    return Market(MarketData(tree, ScenarioModel(tree, menus)))


def trinomial_asset(tree: FiltrationTree) -> dict[int, float]:
    s = {tree.root: 1.0}
    for v in tree.internal_nodes():       # internal_nodes is in time order
        for c, f in zip(tree.children[v], TRI_FACTORS):
            s[c] = s[v] * f
    return s


def trinomial_market(rng: np.random.Generator, periods: int, entries: int) -> Market:
    """Trinomial tree, asset factors TRI_FACTORS, menus from the asset's
    martingale family, one quoted call, a default good-deal cap and +-1
    hedge vertices.

    The quote band is the bid/ask of the model whose menus hold both ends
    of the family, so it contains the price of every model this function
    builds, whatever the seed (prices are menu maxima of affine functions
    of t).
    """
    tree = FiltrationTree.trinomial(periods)
    s = trinomial_asset(tree)

    def kernel(t: float) -> tuple[float, float, float]:
        return (t, 1.0 - 3.0 * t, 2.0 * t)

    menus = {v: _menu((kernel(float(rng.uniform(T_LO, T_HI))), a)
                      for a in _penalties(rng, entries))
             for v in tree.internal_nodes()}
    ends = ScenarioModel(tree, {v: _menu(((kernel(T_LO), 0.0), (kernel(T_HI), 0.0)))
                                for v in tree.internal_nodes()})
    payoff = grid_claim(tree, s, QUOTED)
    x = np.array([payoff.values[b] for b in tree.leaves])
    levels = Levels(tree, ends)
    ask = float(levels.menu_max(x)[tree.root])
    bid = -float(levels.menu_max(-x)[tree.root])
    md = MarketData(tree, ScenarioModel(tree, menus), [AssetProcess("S", dict(s))],
                    quotes=[QuotedOption("C1", payoff, bid, ask)],
                    caps=GoodDealCaps.uniform(GOOD_DEAL_CAP),
                    constraint_set=ConstraintSet([(-1.0,), (1.0,)]))
    return Market(md, s)


def grid_claim(tree: FiltrationTree, s: dict[int, float], name: str) -> Claim:
    """``call:K``, ``put:K`` or ``digital:K`` on the asset at the horizon."""
    kind, strike = name.split(":")
    k = float(strike)
    pay = {"call": lambda x: max(x - k, 0.0), "put": lambda x: max(k - x, 0.0),
           "digital": lambda x: 1.0 if x > k else 0.0}[kind]
    return Claim(StoppingTime.at_horizon(tree), {b: float(pay(s[b])) for b in tree.leaves})


def random_process(rng: np.random.Generator, tree: FiltrationTree) -> dict[int, float]:
    """Payoff process of an American put on a random binomial walk."""
    s = {tree.root: 1.0}
    for v in tree.internal_nodes():
        up, down = tree.children[v]
        s[up], s[down] = s[v] * 1.2, s[v] / 1.2
    k = float(rng.uniform(0.9, 1.1))
    return {v: max(k - s[v], 0.0) for v in range(tree.n_nodes)}


def write_market(path: str, market: Market) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_market(market.data))
    return path


def write_values(path: str, values: dict[int, float]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"value {v} {float(x)!r}\n" for v, x in sorted(values.items()))
    return path
