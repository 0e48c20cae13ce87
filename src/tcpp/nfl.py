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
Both searches read one computation of the zero-penalty mixtures and their
uncharged edges.  :func:`nfl_verdict` then corroborates the certificate:
its minimal penalty (one support search per level group, no LP), the
martingale sandwich on sampled claims and stopping times (one ask, one bid
and one expectation pass over every sample, compared on the sampled cuts
in one masked comparison), and sampled zero-cost strategies, each with
nonpositive expectation under the measure.  However many strategies it
draws, they cost two passes from the horizon: one over every W, Y and -Y
samples them, and one over every X0, Z and -Y validates them; the
one-strategy :func:`sample_zero_cost` and :func:`validate_zero_cost` are
the same code.  A model with a negative penalty is rejected with
:class:`NegativePenalty`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InconsistentVerdicts, NegativePenalty, TcppError
from .pricing import _columns, backward_pass, price, random_stopping_time
from .report import CheckReport
from .scenario import ScenarioModel, minimal_penalty, uncharged_edges
from .settings import DEFAULT, Settings
from .tree import (Claim, FiltrationTree, Measure, StoppingTime, lift,
                   require_finite, stacked_conditional_expectation,
                   validate_stopping_time)


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


def _zero_penalty_family(model: ScenarioModel, settings: Settings
                         ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Each node's uniform mixture of its entries of penalty at most
    ``feasibility_tol``, its row of packed penalties (padding repeats one),
    and the edges that the mixture leaves uncharged (see
    :func:`uncharged_edges`): what both searches below read.

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
    mix = model.mixture(settings.feasibility_tol)
    return mix, pens, uncharged_edges(model, mix, settings.equivalence_floor)


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
    return _static_free_lunch(model, settings, *_zero_penalty_family(model, settings))[0]


def _static_free_lunch(model: ScenarioModel, settings: Settings, mix: np.ndarray,
                       pens: np.ndarray, edges: list[tuple[int, int]]
                       ) -> tuple[FreeLunchCertificate | None, float | None]:
    """The certificate of :func:`find_static_free_lunch`, or None, and the
    root ask of the claim that decided it (None without an uncharged edge)."""
    tree = model.tree
    tol = settings.feasibility_tol
    if not edges:
        return None, None
    v, c = edges[0]
    top = c if mix[v].any() else v      # a kept entry's kernel puts weight somewhere
    eps = min(pens[v][pens[v] > tol].tolist(), default=1.0)
    below = tree.owner_index([top], tree.leaves) == 0
    claim = Claim(StoppingTime.at_horizon(tree), np.where(below, eps, 0.0))
    root_price = price(model, claim, StoppingTime.at_root(tree)).values[tree.root]
    if root_price <= tol:
        return FreeLunchCertificate("static-arbitrage-claim", claim=claim), root_price
    return None, root_price


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
    mix, _, edges = _zero_penalty_family(model, settings)
    return _zero_penalty_measure(model.tree, mix, edges)


def _zero_penalty_measure(tree: FiltrationTree, mix: np.ndarray,
                          edges: list[tuple[int, int]]) -> Measure | None:
    if edges:
        return None
    return Measure.from_leaf_masses(tree, tree.product_down(mix)[list(tree.leaves)])


@dataclass
class ZeroCostStrategy:
    """X0 plus swaps (tau_i, Z_i, Y_i) self-financing under the ask/bid rule."""

    initial: Claim
    swaps: list[tuple[StoppingTime, Claim, Claim]] = field(default_factory=list)

    def payoff(self, tree: FiltrationTree) -> Claim:
        """X0 plus every Z less its Y, each lifted to the horizon."""
        horizon = StoppingTime.at_horizon(tree)

        def at_horizon(x: Claim) -> Claim:
            return x if x.at == horizon else lift(tree, x, horizon)
        total = at_horizon(self.initial)
        for _, z, y in self.swaps:
            total = total + at_horizon(z) - at_horizon(y)
        return total


def validate_zero_cost(model: ScenarioModel, strat: ZeroCostStrategy,
                       tol: float = 1e-9) -> None:
    """Raise :class:`TcppError` unless ``strat`` costs nothing; see
    :func:`validate_zero_cost_batch`."""
    validate_zero_cost_batch(model, [strat], tol)


def validate_zero_cost_batch(model: ScenarioModel, strats: Sequence[ZeroCostStrategy],
                             tol: float = 1e-9) -> None:
    """Raise :class:`TcppError` unless every strategy costs nothing: the root
    ask of X0 is at most ``tol``, the swap times are nondecreasing, and at
    every atom of each swap time the ask of Z is at most the bid of Y plus
    ``tol``.  Every X0, Z and -Y at one cut is a column of one backward pass
    from that cut, so strategies sampled from the horizon cost one pass in
    all.  The first failure, in strategy and swap order, is raised naming
    the strategy, the swap and the atom.
    """
    tree = model.tree
    at: dict[StoppingTime, list[Claim]] = {}

    def column(x: Claim) -> tuple[StoppingTime, int]:
        """Where ``x`` sits: its cut's pass and its column in it."""
        validate_stopping_time(tree, x.at)
        require_finite(x, "claim value")
        claims = at.setdefault(x.at, [])
        claims.append(x)
        return x.at, len(claims) - 1

    where = [(column(s.initial), [(tau, column(z), column(-y)) for tau, z, y in s.swaps])
             for s in strats]
    passes = {cut: backward_pass(model, cut, _columns(tree, cut, xs)) for cut, xs in at.items()}
    for i, (x0, swaps) in enumerate(where):
        p0 = passes[x0[0]][tree.root, x0[1]]
        if p0 > tol:
            raise TcppError(f"strategy {i} initial claim atom {tree.root}: "
                            f"positive root price {p0.item()!r}")
        prev: StoppingTime | None = None
        for j, (tau, z, neg_y) in enumerate(swaps):
            validate_stopping_time(tree, tau)
            if prev is not None:
                early = tree.owner_index(prev.index, tau.index) < 0   # none of prev above
                if early.any():
                    raise TcppError(f"strategy {i} swap {j} atom {tau.index[early.argmax()]}: "
                                    f"swap times must be nondecreasing, and this atom "
                                    f"comes before swap {j - 1}'s time")
            prev = tau
            ask_z, bid_y = passes[z[0]][tau.index, z[1]], -passes[neg_y[0]][tau.index, neg_y[1]]
            below = np.isnan(ask_z) | np.isnan(bid_y)       # the pass stops at the claim's cut
            if below.any():
                raise TcppError(f"strategy {i} swap {j} atom {tau.index[below.argmax()]}: "
                                f"pricing time must precede the claim's stopping time")
            short = ask_z > bid_y + tol
            if short.any():
                r = short.argmax()
                raise TcppError(f"strategy {i} swap {j} atom {tau.index[r]}: swap not "
                                f"self-financing, ask of Z above bid of Y by "
                                f"{(ask_z[r] - bid_y[r]).item()!r}")


def _draw_zero_cost(tree: FiltrationTree, seed: int, n_swaps: int
                    ) -> tuple[np.ndarray, list[tuple[StoppingTime, np.ndarray]]]:
    """The random numbers of one strategy: W at the leaves, then each swap's
    time and Y, from one generator seeded ``seed``."""
    rng = np.random.default_rng(seed)
    n = len(tree.leaves)
    w = rng.uniform(-1.0, 1.0, n)
    swaps, current = [], StoppingTime.at_root(tree)
    for _ in range(n_swaps):
        current = random_stopping_time(tree, rng, lo=current)
        swaps.append((current, rng.uniform(0.0, 1.0, n)))
    return w, swaps


def sample_zero_cost(model: ScenarioModel, seed: int = 0,
                     n_swaps: int = 2) -> ZeroCostStrategy:
    """Random strategy attainable at zero cost; the self-financing
    inequality binds through a bid-ask spread shift.  See
    :func:`sample_zero_cost_batch`."""
    return sample_zero_cost_batch(model, [(seed, n_swaps)])[0]


def sample_zero_cost_batch(model: ScenarioModel,
                           draws: Sequence[tuple[int, int]]) -> list[ZeroCostStrategy]:
    """One zero-cost strategy per ``(seed, n_swaps)``, checked by
    :func:`validate_zero_cost_batch`.

    X0 is a uniform claim W at the horizon less its root ask; each swap
    draws a later stopping time and a uniform claim Y >= 0 at the horizon,
    and Z is Y less its bid-ask spread at that time, lifted to the leaves.
    Every W, Y and -Y is a column of one backward pass from the horizon,
    whose rows give the root asks and the spreads at every swap time.
    """
    tree = model.tree
    if not draws:
        return []
    horizon = StoppingTime.at_horizon(tree)
    drawn = [_draw_zero_cost(tree, seed, n_swaps) for seed, n_swaps in draws]
    ws = [w for w, _ in drawn]
    ys = [y for _, swaps in drawn for _, y in swaps]
    values = np.full((tree.n_nodes, len(ws) + 2 * len(ys)), np.nan)
    values[horizon.index] = np.column_stack(ws + ys + [-y for y in ys])
    out = backward_pass(model, horizon, values)
    ask, neg_bid = out[:, len(ws):len(ws) + len(ys)], out[:, len(ws) + len(ys):]
    strats, k = [], 0
    for i, (w, swaps) in enumerate(drawn):
        x0 = Claim(horizon, w - out[tree.root, i])
        strat = ZeroCostStrategy(x0, [])
        for tau, y in swaps:
            spread = ask[tau.index, k] + neg_bid[tau.index, k]      # ask less bid
            z = y - spread[tree.owner_index(tau.index, horizon.index)]
            strat.swaps.append((tau, Claim(horizon, z), Claim(horizon, y)))
            k += 1
        strats.append(strat)
    del values, out, ask, neg_bid       # so that the two passes never hold memory at once
    validate_zero_cost_batch(model, strats)
    return strats


def _broken_sandwich(model: ScenarioModel, measure: Measure, rng: np.random.Generator,
                     n_samples: int, tol: float) -> np.ndarray:
    """Draw ``n_samples`` uniform claims at the horizon, every other one
    with a random stopping time (the root otherwise), and return the
    (sample, atom) pairs, sample by sample and atoms ascending, where
    bid <= E_R(X | F_sigma) <= ask fails under ``measure``.  Every sample is
    priced, and its conditional expectations taken, at every node by one
    stacked ask, bid and expectation pass each, and compared on its cut's
    rows in one masked comparison."""
    tree = model.tree
    horizon = StoppingTime.at_horizon(tree)
    xs = np.full((tree.n_nodes, n_samples), np.nan)
    on_cut = np.zeros((tree.n_nodes, n_samples), dtype=bool)
    for i in range(n_samples):
        xs[horizon.index, i] = rng.uniform(-1.0, 1.0, len(tree.leaves))
        sigma = random_stopping_time(tree, rng) if i % 2 else StoppingTime.at_root(tree)
        on_cut[sigma.index, i] = True
    ask, neg_bid = backward_pass(model, horizon, xs), backward_pass(model, horizon, -xs)
    e = stacked_conditional_expectation(tree, measure.node_masses(tree), horizon, xs)
    return np.argwhere((on_cut & ~((-neg_bid - tol <= e) & (e <= ask + tol))).T)


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

    family = _zero_penalty_family(model, settings)
    static, p = _static_free_lunch(model, settings, *family)        # condition ii
    measure = _zero_penalty_measure(tree, family[0], family[2])     # iii
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
        # sampled stopping times
        for i, a in _broken_sandwich(model, measure, rng, n_samples, tol).tolist():
            checks.add(f"sample {i} atom {a}",
                       "martingale sandwich broken under certificate measure")
        # i: sampled zero-cost strategies have nonpositive expectation, all
        # sampled by one pass and validated by another
        strats = sample_zero_cost_batch(
            model, [(seed + 1 + i, int(rng.integers(0, 3))) for i in range(n_strategies)])
        payoffs = np.empty((len(tree.leaves), len(strats)))
        for i, strat in enumerate(strats):
            payoffs[:, i] = strat.payoff(tree).array
        for i, ev in enumerate((measure.leaf_masses(tree) @ payoffs).tolist()):
            if ev > tol:
                checks.add(f"strategy {i}",
                           f"zero-cost payoff has positive expectation {ev!r}")
        cert = FreeLunchCertificate("zero-penalty-equivalent-measure", measure=measure)
    else:
        claim = static.claim
        vals = claim.array
        if np.any(vals < -tol) or vals.max() <= tol:
            raise InconsistentVerdicts("static certificate is not a free lunch claim")
        checks.info["certificate_price"] = p      # <= tol, or there is no certificate
        # iv refuted: any equivalent measure would satisfy E_R(X*) <= price <= 0,
        # impossible for a nonnegative nonzero claim; i refuted by X* in K_0.
        checks.info["iv_refuted_by"] = "certificate claim"
        cert = static

    if not checks.passed:
        raise InconsistentVerdicts("sampled corroboration failed: " + checks.summary())
    return NflReport(no_free_lunch=verdict_ii, certificate=cert, checks=checks)
