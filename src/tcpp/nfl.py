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
its minimal penalty (one support search per stack of level groups of one
menu width and arity, no LP), the martingale sandwich on sampled claims
and stopping times (one ask, one bid and one expectation pass over every
sample, compared on the sampled cuts in one masked comparison), and
sampled zero-cost strategies, each with nonpositive expectation under the
measure.  However many strategies it draws, they are columns of two
passes from the horizon: one over every W, Y and -Y samples them, and one
over every X0, Z and -Y validates them, each inequality one comparison
over all of them; their payoffs' expectations are one matrix product.
The strategies as claims (:func:`sample_zero_cost_batch`) are those
columns, and :func:`validate_zero_cost_batch` judges claims at any cuts
by the same comparisons.  A model with a negative penalty is rejected
with :class:`NegativePenalty`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InconsistentVerdicts, NegativePenalty, TcppError
from .pricing import _columns, backward_pass, price, random_stopping_time, zero_slack
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
    all; :func:`_raise_unless_zero_cost` then judges them all at once.
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

    where = [(column(s.initial), [(column(z), column(-y)) for _, z, y in s.swaps])
             for s in strats]
    taus = [tau for s in strats for tau, _, _ in s.swaps]
    for tau in taus:
        validate_stopping_time(tree, tau)
    passes = {cut: backward_pass(model, cut, _columns(tree, cut, xs)) for cut, xs in at.items()}
    ask_z, neg_y = np.empty((2, tree.n_nodes, len(taus)))
    for k, ((z, i), (y, j)) in enumerate(swap for _, swaps in where for swap in swaps):
        ask_z[:, k], neg_y[:, k] = passes[z][:, i], passes[y][:, j]
    _raise_unless_zero_cost(tree, np.array([passes[cut][tree.root, i] for (cut, i), _ in where]),
                            np.repeat(np.arange(len(strats)), [len(s.swaps) for s in strats]),
                            tree.owners([tau.cut for tau in taus]), ask_z, -neg_y, tol)


def _raise_unless_zero_cost(tree: FiltrationTree, p0: np.ndarray, strategy: np.ndarray,
                            own: np.ndarray, ask_z: np.ndarray, bid_y: np.ndarray,
                            tol: float) -> None:
    """Judge strategies given as arrays: ``p0[i]`` the root ask of strategy
    i's X0, and per swap k, in strategy and swap order, ``strategy[k]`` its
    strategy, ``own[:, k]`` each node's atom of its time (of
    ``tree.owners``), and ``ask_z[:, k]`` and ``bid_y[:, k]`` the ask of its
    Z and the bid of its Y at every node (NaN where the pass from the
    claim's cut does not reach).  Each inequality is one comparison over all
    of them; the first failure, in strategy and swap order, is raised as a
    :class:`TcppError` naming the strategy, the swap and its first atom."""
    on_cut = own == np.arange(tree.n_nodes)[:, None]
    after = np.ones_like(on_cut)      # at or below the strategy's previous swap time
    again = np.flatnonzero(strategy[1:] == strategy[:-1]) + 1
    after[:, again] = own[:, again - 1] >= 0
    fails = (on_cut & ~after, on_cut & (np.isnan(ask_z) | np.isnan(bid_y)),
             on_cut & (ask_z > bid_y + tol))
    poor = np.flatnonzero(p0 > tol)[:1]
    bad = np.flatnonzero(np.logical_or.reduce(fails).any(axis=0))[:1]
    if not (poor.size or bad.size):
        return
    i = min(poor.tolist() + strategy[bad].tolist())
    if poor.size and poor[0] == i:
        raise TcppError(f"strategy {i} initial claim atom {tree.root}: "
                        f"positive root price {p0[i].item()!r}")
    k = int(bad[0])
    j = k - int(np.searchsorted(strategy, i))
    early, below, short = (fail[:, k] for fail in fails)
    if early.any():
        raise TcppError(f"strategy {i} swap {j} atom {early.argmax()}: swap times must be "
                        f"nondecreasing, and this atom comes before swap {j - 1}'s time")
    if below.any():
        raise TcppError(f"strategy {i} swap {j} atom {below.argmax()}: "
                        f"pricing time must precede the claim's stopping time")
    a = short.argmax()
    raise TcppError(f"strategy {i} swap {j} atom {a}: swap not self-financing, ask of Z "
                    f"above bid of Y by {(ask_z[a, k] - bid_y[a, k]).item()!r}")


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
    """One zero-cost strategy per ``(seed, n_swaps)``, validated as
    :func:`validate_zero_cost_batch` would: the claims of the columns of
    :func:`_zero_cost_columns`.

    X0 is a uniform claim W at the horizon less its root ask; each swap
    draws a later stopping time and a uniform claim Y >= 0 at the horizon,
    and Z is Y less its bid-ask spread at that time, lifted to the leaves.
    """
    if not draws:
        return []
    horizon = StoppingTime.at_horizon(model.tree)
    x0, y, z, strategy, taus = _zero_cost_columns(model, draws)
    strats = [ZeroCostStrategy(Claim(horizon, x)) for x in x0.T]
    for i, tau, zk, yk in zip(strategy.tolist(), taus, z.T, y.T):
        strats[i].swaps.append((tau, Claim(horizon, zk), Claim(horizon, yk)))
    return strats


def _zero_cost_columns(model: ScenarioModel, draws: Sequence[tuple[int, int]]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                  list[StoppingTime]]:
    """The strategies of :func:`sample_zero_cost_batch` as columns at the
    horizon, leaves ascending: X0 a column per strategy, Y and Z a column per
    swap, in strategy and swap order, with each swap's strategy and time.

    Every W, Y and -Y is a column of one backward pass from the horizon,
    whose rows give the root asks and the spreads at every swap time; each
    leaf reads the spread at its atom of the swap time (``tree.owners``).
    That pass is freed, and every X0, Z and -Y is a column of a second one,
    which :func:`_raise_unless_zero_cost` judges at ``tol`` 1e-9."""
    tree = model.tree
    horizon = StoppingTime.at_horizon(tree)
    leaves = horizon.index
    drawn = [_draw_zero_cost(tree, seed, n_swaps) for seed, n_swaps in draws]
    taus = [tau for _, swaps in drawn for tau, _ in swaps]
    s, k = len(drawn), len(taus)
    strategy = np.repeat(np.arange(s), [len(swaps) for _, swaps in drawn])
    ys = [y for _, swaps in drawn for _, y in swaps]
    values = np.full((tree.n_nodes, s + 2 * k), np.nan)
    values[leaves] = np.column_stack([w for w, _ in drawn] + ys + [-y for y in ys])
    del drawn, ys
    out = backward_pass(model, horizon, values)
    own = tree.owners([tau.cut for tau in taus])
    at, ask = own[leaves], np.arange(s, s + k)
    # W becomes X0 and Y becomes Z, each leaf reading the spread (ask less
    # bid) at its atom of the swap time; -Y stays
    values[leaves, :s] = values[leaves, :s] - out[tree.root, :s]
    values[leaves, s:s + k] = values[leaves, s:s + k] - (out[at, ask] + out[at, ask + k])
    del out         # so that the two passes never hold memory at once
    out = backward_pass(model, horizon, values)
    del values      # the pass keeps X0, Z and -Y on its leaf rows
    _raise_unless_zero_cost(tree, out[tree.root, :s], strategy, own, out[:, s:s + k],
                            -out[:, s + k:], 1e-9)
    return out[leaves, :s], -out[leaves, s + k:], out[leaves, s:s + k], strategy, taus


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
    penalty raises :class:`NegativePenalty`.  The corroboration widens
    ``feasibility_tol`` by :func:`tcpp.pricing.zero_slack`.
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
        slack = zero_slack(model, tol)      # penalties counted as zero, summed on a path
        pen = minimal_penalty(model, measure, root, horizon, settings).values[tree.root]
        if pen > tol + slack:
            raise InconsistentVerdicts(f"certificate measure has penalty {pen!r}")
        checks.info["certificate_penalty"] = pen
        checks.info["min_density"] = min(measure.density.values())
        # iv: sandwich under the certificate measure on sampled claims at
        # sampled stopping times
        for i, a in _broken_sandwich(model, measure, rng, n_samples, tol + slack).tolist():
            checks.add(f"sample {i} atom {a}",
                       "martingale sandwich broken under certificate measure")
        # i: sampled zero-cost strategies have nonpositive expectation, all
        # sampled by one pass and validated by another, as columns
        draws = [(seed + 1 + i, int(rng.integers(0, 3))) for i in range(n_strategies)]
        if draws:
            payoffs, y, z, strategy, _ = _zero_cost_columns(model, draws)
            # X0 plus each swap's Z less its Y, swap by swap in each strategy
            nth = np.arange(len(strategy)) - np.searchsorted(strategy, strategy)
            for j in range(int(nth.max(initial=-1)) + 1):
                k = np.flatnonzero(nth == j)
                payoffs[:, strategy[k]] = payoffs[:, strategy[k]] + z[:, k] - y[:, k]
            # each swap prices two claims, and X0 one, each within slack
            evs = (measure.leaf_masses(tree) @ payoffs).tolist()
            for i, (ev, (_, n)) in enumerate(zip(evs, draws)):
                if ev > tol + (1 + 2 * n) * slack:
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
