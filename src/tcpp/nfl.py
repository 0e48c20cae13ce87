"""No-free-lunch verdicts through each of the four equivalent characterizations.

Menus chosen independently per node make the scenario family stable under
pasting and its penalties additive, so with nonnegative penalties the
verdict is decided edge by edge, without enumerating selections or solving
a global LP: the model has no free lunch exactly when every internal node
has a zero-penalty entry and those entries together charge every child.
The free-lunch certificate is a scaled indicator of the leaves below the
first uncharged edge; the measure certificate is the product of each
node's uniform mixture of zero-penalty kernels, carried down the level
groups in one top-down product.  Both cost O(nodes x menu x arity).
:func:`nfl_verdict` then corroborates the certificate: its minimal penalty
(one support search per level group, no LP), the martingale sandwich on
sampled claims and stopping times, and sampled zero-cost strategies.  A
model with a negative penalty is rejected with :class:`NegativePenalty`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentVerdicts, NegativePenalty, TcppError
from .pricing import backward_pass, price, random_stopping_time
from .report import CheckReport
from .scenario import ScenarioModel, minimal_penalty, uncharged_edges
from .settings import DEFAULT, Settings
from .tree import (Claim, FiltrationTree, Measure, StoppingTime, lift,
                   precedes, stacked_conditional_expectation)


@dataclass
class FreeLunchCertificate:
    """Witness for one side of the verdict.

    kind 'static-arbitrage-claim': a nonnegative nonzero claim with
    nonpositive root ask price.  kind 'zero-penalty-equivalent-measure': an
    equivalent measure with zero minimal penalty.
    """

    kind: str
    claim: Claim | None = None
    measure: Measure | None = None

    def __post_init__(self):
        if self.kind == "static-arbitrage-claim" and (self.claim is None or self.measure is not None):
            raise TcppError("a static certificate must carry exactly a claim")
        if self.kind == "zero-penalty-equivalent-measure" and (self.measure is None or self.claim is not None):
            raise TcppError("a measure certificate must carry exactly a measure")


def _zero_penalty_mixture(model: ScenarioModel,
                          settings: Settings) -> tuple[np.ndarray, np.ndarray]:
    """Each node's uniform mixture of its entries of penalty at most
    ``feasibility_tol``, and its row of packed penalties (padding repeats one).

    The node-local criteria below hold for nonnegative penalties only, so a
    negative one is rejected here, naming its node.
    """
    pens = np.full((model.tree.n_nodes, model.menu_sizes.max()), np.nan)
    for nodes, _, _, penalties in model.steps(model.tree.leaves):
        pens[nodes, :penalties.shape[1]] = penalties
    for node, idx in np.argwhere(pens < 0.0)[:1].tolist():
        raise NegativePenalty(
            f"menu entry {idx} at node {node} has negative penalty "
            f"{pens[node, idx].item()!r}; no-free-lunch needs nonnegative penalties")
    return model.mixture(settings.feasibility_tol), pens


def find_static_free_lunch(model: ScenarioModel,
                           settings: Settings = DEFAULT) -> FreeLunchCertificate | None:
    """A nonnegative nonzero claim with nonpositive root ask, or None.

    Take the first edge (v, c) in preorder that the zero-penalty entries at
    v leave uncharged (see :func:`uncharged_edges`).  With eps the smallest
    positive penalty at v (1 if there is none), eps times the indicator of
    the leaves below c costs nothing: zero-penalty entries give it no
    weight, and every other entry pays at least eps to charge it.  Where v
    has no zero-penalty entry at all, the claim covers every leaf below v.
    """
    tree = model.tree
    tol = settings.feasibility_tol
    mix, pens = _zero_penalty_mixture(model, settings)
    edges = uncharged_edges(model, mix, settings.equivalence_floor)
    if not edges:
        return None
    v, c = edges[0]
    top = c if mix[v].any() else v      # a kept entry's kernel puts weight somewhere
    eps = min(pens[v][pens[v] > tol].tolist(), default=1.0)
    below = tree.owner_index([top], tree.leaves) == 0
    claim = Claim(StoppingTime.at_horizon(tree), np.where(below, eps, 0.0))
    root_price = price(model, claim, StoppingTime.at_root(tree)).values[tree.root]
    if root_price <= tol:
        return FreeLunchCertificate("static-arbitrage-claim", claim=claim)
    return None


def find_zero_penalty_equivalent_measure(model: ScenarioModel,
                                         settings: Settings = DEFAULT) -> Measure | None:
    """Product over nodes of each node's uniform mixture of its zero-penalty
    kernels, or None when that mixture leaves some edge uncharged.

    Each one-step conjugate vanishes at such a mixture by convexity, so the
    minimal penalty, their R-expectation, does too.  Charging is decided per
    edge against ``equivalence_floor``, the same test the static search
    makes, so the two cannot disagree on deep trees whose leaf masses, as
    products of many edge weights, fall below the floor.
    """
    tree = model.tree
    mix = _zero_penalty_mixture(model, settings)[0]
    if uncharged_edges(model, mix, settings.equivalence_floor):
        return None
    return Measure.from_leaf_masses(tree, tree.product_down(mix)[list(tree.leaves)])


@dataclass
class ZeroCostStrategy:
    """X0 plus swaps (tau_i, Z_i, Y_i) self-financing under the ask/bid rule."""

    initial: Claim
    swaps: list[tuple[StoppingTime, Claim, Claim]] = field(default_factory=list)

    def payoff(self, tree: FiltrationTree) -> Claim:
        horizon = StoppingTime.at_horizon(tree)
        total = self.initial if self.initial.at == horizon else lift(tree, self.initial, horizon)
        for _, z, y in self.swaps:
            total = total + z - y
        return total


def validate_zero_cost(model: ScenarioModel, strat: ZeroCostStrategy,
                       tol: float = 1e-9) -> None:
    tree = model.tree
    root = StoppingTime.at_root(tree)
    p0 = price(model, strat.initial, root).values[tree.root]
    if p0 > tol:
        raise TcppError(f"initial claim has positive root price {p0!r}")
    prev: StoppingTime | None = None
    for tau, z, y in strat.swaps:
        if prev is not None and not precedes(tree, prev, tau):
            raise TcppError("swap times must be nondecreasing")
        prev = tau
        ask_z = price(model, z, tau)
        bid_y = -price(model, -y, tau)
        short = ask_z.array > bid_y.array + tol
        if short.any():
            raise TcppError(f"swap not self-financing at atom {tau.index[short.argmax()]}")


def sample_zero_cost(model: ScenarioModel, seed: int = 0,
                     n_swaps: int = 2) -> ZeroCostStrategy:
    """Random strategy attainable at zero cost; the self-financing
    inequality binds through a bid-ask spread shift."""
    tree = model.tree
    rng = np.random.default_rng(seed)
    horizon = StoppingTime.at_horizon(tree)
    root = StoppingTime.at_root(tree)

    w = Claim(horizon, rng.uniform(-1.0, 1.0, len(tree.leaves)))
    x0 = w - price(model, w, root).values[tree.root]

    swaps = []
    current = StoppingTime.at_root(tree)
    for _ in range(n_swaps):
        current = random_stopping_time(tree, rng, lo=current)
        y = Claim(horizon, rng.uniform(0.0, 1.0, len(tree.leaves)))
        ask_y = price(model, y, current)
        bid_y = -price(model, -y, current)
        z = y - lift(tree, ask_y - bid_y, horizon)
        swaps.append((current, z, y))
    strat = ZeroCostStrategy(x0, swaps)
    validate_zero_cost(model, strat)
    return strat


@dataclass
class NflReport:
    no_free_lunch: bool
    certificate: FreeLunchCertificate
    checks: CheckReport

    def __bool__(self) -> bool:
        return self.no_free_lunch


def nfl_verdict(model: ScenarioModel, seed: int = 0, n_samples: int = 50,
                n_strategies: int = 20,
                settings: Settings = DEFAULT) -> NflReport:
    """Run all four characterizations, assert they agree, corroborate by
    sampling, and return the joint verdict with its certificate.

    Disagreement raises :class:`InconsistentVerdicts`: the equivalence is a
    theorem, so divergence can only mean an implementation bug.  A negative
    penalty raises :class:`NegativePenalty`.
    """
    tree = model.tree
    root = StoppingTime.at_root(tree)
    horizon = StoppingTime.at_horizon(tree)
    tol = settings.feasibility_tol
    rng = np.random.default_rng(seed)
    checks = CheckReport(check="no free lunch", passed=True)

    static = find_static_free_lunch(model, settings)          # condition ii
    measure = find_zero_penalty_equivalent_measure(model, settings)  # iii
    verdict_ii = static is None
    verdict_iii = measure is not None
    if verdict_ii != verdict_iii:
        raise InconsistentVerdicts(
            f"static search says {'NFL' if verdict_ii else 'free lunch'} but "
            f"measure search says {'NFL' if verdict_iii else 'free lunch'}")

    if measure is not None:
        pen = minimal_penalty(model, measure, root, horizon, settings).values[tree.root]
        if pen > tol:
            raise InconsistentVerdicts(f"certificate measure has penalty {pen!r}")
        checks.info["certificate_penalty"] = pen
        checks.info["min_density"] = min(measure.density.values())
        # iv: sandwich under the certificate measure on sampled claims at
        # sampled stopping times; every sample priced, and its conditional
        # expectations taken, at every node by one stacked ask, bid and
        # expectation pass each
        xs = np.full((tree.n_nodes, n_samples), np.nan)
        sigmas = []
        for i in range(n_samples):
            xs[horizon.index, i] = rng.uniform(-1.0, 1.0, len(tree.leaves))
            sigmas.append(random_stopping_time(tree, rng) if i % 2 else root)
        ask, neg_bid = backward_pass(model, horizon, xs), backward_pass(model, horizon, -xs)
        e = stacked_conditional_expectation(tree, measure.node_masses(tree), horizon, xs)
        for i, sigma in enumerate(sigmas):
            rows = sigma.index
            inside = (-neg_bid[rows, i] - tol <= e[rows, i]) & (e[rows, i] <= ask[rows, i] + tol)
            for a in rows[~inside].tolist():
                checks.add(f"sample {i} atom {a}",
                           "martingale sandwich broken under certificate measure")
        # i: sampled zero-cost strategies have nonpositive expectation
        masses = measure.leaf_masses(tree)
        for i in range(n_strategies):
            strat = sample_zero_cost(model, seed=seed + 1 + i,
                                     n_swaps=int(rng.integers(0, 3)))
            ev = float(masses @ strat.payoff(tree).array)
            if ev > tol:
                checks.add(f"strategy {i}",
                           f"zero-cost payoff has positive expectation {ev!r}")
        cert = FreeLunchCertificate("zero-penalty-equivalent-measure", measure=measure)
    else:
        claim = static.claim
        vals = claim.array
        if np.any(vals < -tol) or vals.max() <= tol:
            raise InconsistentVerdicts("static certificate is not a free lunch claim")
        p = price(model, claim, root).values[tree.root]
        if p > tol:
            raise InconsistentVerdicts(f"static certificate priced at {p!r} > 0")
        checks.info["certificate_price"] = p
        # iv refuted: any equivalent measure would satisfy E_R(X*) <= price <= 0,
        # impossible for a nonnegative nonzero claim; i refuted by X* in K_0.
        checks.info["iv_refuted_by"] = "certificate claim"
        cert = static

    if not checks.passed:
        raise InconsistentVerdicts("sampled corroboration failed: " + checks.summary())
    return NflReport(no_free_lunch=verdict_ii, certificate=cert, checks=checks)
