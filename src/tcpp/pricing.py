"""Pricing engine: ask/bid evaluation and the checks behind its axioms.

The production evaluator is backward induction over the menu maxima, linear
in nodes times menu size: :func:`backward_pass` takes one level group of
``FiltrationTree.levels`` at a time, with the menus the model packed per
group, on one node-indexed array with a column per claim, and with the
payoff as exercise floor it is the American (Snell) recursion.  Claims
enter the pass as their value arrays, scattered into its columns, and
prices leave it as rows sliced off its result.  The enumerations of
selections and stopping times are reference implementations that only the
tests run; they are exponential and capped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Protocol, Sequence

import numpy as np

from .errors import EnumerationOverflow, TcppError
from .report import CheckReport
from .scenario import _CELLS, ScenarioModel, minimal_penalty
from .settings import DEFAULT, Settings
from .tree import (Claim, ClaimStack, FiltrationTree, Measure, StoppingTime, lift,
                   precedes, require_finite, stacked_conditional_expectation,
                   validate_stopping_time)


def backward_pass(model: ScenarioModel, at: StoppingTime, values: np.ndarray,
                  floor: np.ndarray | None = None, argmax: np.ndarray | None = None
                  ) -> np.ndarray:
    """Menu-maximum recursion from the cut to the root, vectorized over claims.

    ``values`` has a row per node and a column per claim; only the cut's rows
    are read.  The result, of the same shape, holds the cut's rows, the ask
    prices above the cut and NaN below it.  A node above the cut takes the
    larger of its menu maximum and its ``floor`` (a row per node, ``-inf``
    for none): the Snell envelope of a payoff process.  Each level group is
    one product of its packed kernels with its children's values.  An
    integer ``argmax`` of the shape of ``values`` gets, in the rows above the
    cut, each node's first maximal entry, never a padding copy; it changes
    no value.
    """
    out = np.full((model.tree.n_nodes, values.shape[1]), np.nan)
    out[at.index] = values[at.index]
    for nodes, kids, kernels, penalties in model.steps(at.cut):
        cand = np.einsum("gek,gkm->gem", kernels, out[kids]) - penalties[:, :, None]
        best = cand.max(axis=1)
        if argmax is not None:
            argmax[nodes] = cand.argmax(axis=1)
        out[nodes] = best if floor is None else np.maximum(best, floor[nodes, None])
    return out


def _columns(tree: FiltrationTree, at: StoppingTime, xs: Sequence[Claim]) -> np.ndarray:
    """Claims at ``at`` as the columns of one node-indexed array, NaN off the cut."""
    out = np.full((tree.n_nodes, len(xs)), np.nan)
    out[at.index] = np.reshape([x.array for x in xs], (len(xs), len(at.cut))).T
    return out


def price(model: ScenarioModel, x: Claim, sigma: StoppingTime) -> Claim:
    """Ask price of x at sigma via backward induction."""
    tree = model.tree
    validate_stopping_time(tree, x.at)
    validate_stopping_time(tree, sigma)
    require_finite(x, "claim value")
    values = backward_pass(model, x.at, _columns(tree, x.at, [x]))[sigma.index, 0]
    # of two stopping times, sigma precedes the cut exactly when no sigma node
    # lies below it, where the pass leaves NaN
    if np.isnan(values).any():
        raise TcppError("pricing time must precede the claim's stopping time")
    return Claim(sigma, values)


def bid_ask(model: ScenarioModel, x: Claim, sigma: StoppingTime) -> tuple[Claim, Claim]:
    ask = price(model, x, sigma)
    bid = -price(model, -x, sigma)
    return bid, ask


@dataclass
class PriceProcess:
    """Bid and ask claims along a chain of stopping times."""

    chain: list[StoppingTime]
    bid: list[Claim]
    ask: list[Claim]

    def __post_init__(self):
        for b, a in zip(self.bid, self.ask):
            above = b.array > a.array + 1e-9
            if above.any():
                raise TcppError(f"bid exceeds ask at node {b.at.index[above.argmax()]}")


def price_process(model: ScenarioModel, x: Claim,
                  chain: Sequence[StoppingTime]) -> PriceProcess:
    bids, asks = [], []
    for sigma in chain:
        b, a = bid_ask(model, x, sigma)
        bids.append(b)
        asks.append(a)
    return PriceProcess(list(chain), bids, asks)


class Evaluator(Protocol):
    tree: FiltrationTree

    def price(self, x: Claim, sigma: StoppingTime) -> Claim: ...


def check_axioms(model: ScenarioModel, samples: Sequence[tuple[Claim, Claim]],
                 lambdas: Sequence[float] = (0.0, 0.3, 0.5, 1.0),
                 seed: int = 0, tol: float = 1e-12) -> CheckReport:
    """Verify monotonicity, translation invariance, convexity, normalization.

    Each sample is a pair of claims at a common stopping time; conditioning
    times run over all deterministic cuts preceding it.  The samples at one
    cut are checked together, cut after cut in the order they first appear;
    a :class:`ClaimStack` of pairs is read as its array, with no claim
    built.  Every claim a property compares is a column of one stacked
    backward pass from the cut: X, Y, min(X, Y), the convex combinations
    and X shifted at each time up to the cut, in chunks of samples that
    keep a pass within ``scenario._CELLS`` node-column cells.  The zero
    claim has a pass of its own, as a pass of one column rounds
    differently.  Each property is then one comparison over its slice of
    the result.  Violations are reported with the sample index and atom as
    witnesses: property by property (normalization with monotonicity, each
    lambda, each shift time), then by atom, then by sample.
    """
    if isinstance(samples, ClaimStack) and samples.array.shape[1:2] == (2,):
        groups = [(samples.at, range(len(samples)), samples.array[:, 0], samples.array[:, 1])]
    else:
        cuts: dict[StoppingTime, list[int]] = {}
        for i, (x, y) in enumerate(samples):
            if x.at != y.at:
                raise TcppError(f"sample {i} mixes stopping times")
            cuts.setdefault(x.at, []).append(i)
        groups = [(tau, idxs, np.array([samples[i][0].array for i in idxs]),
                   np.array([samples[i][1].array for i in idxs]))
                  for tau, idxs in cuts.items()]
    tree = model.tree
    times = np.array(tree.times)
    rng = np.random.default_rng(seed)
    report = CheckReport(check="pricing axioms", passed=True)
    for node, msg in model.normalization_findings():
        report.add(f"node {node}", f"normalization: {msg}")
    lam = np.array(lambdas, dtype=float)
    n_lam = len(lam)
    for tau, idxs, xs, ys in groups:
        validate_stopping_time(tree, tau)
        owner = tree.ancestors_by_time(tau.index)       # each cut node's atom at each time
        t_max = len(owner) - 1
        sigma = np.flatnonzero(times <= t_max)      # the atoms of the times up to t_max
        # translation invariance with a random F_t-measurable shift for each
        # t: z holds each atom's shift, and each cut node takes its atom's
        z = np.zeros(tree.n_nodes)
        for t in range(t_max + 1):
            atoms = np.flatnonzero(times == t)
            z[atoms] = rng.uniform(-2.0, 2.0, len(atoms))
        shifts = z[owner.T]
        vzero = backward_pass(model, tau, np.zeros((tree.n_nodes, 1)))[:, 0]
        # each finding keyed by its column, atom and sample; normalization
        # comes first at each atom, with monotonicity's min(X, Y) column
        found = [((2, a, -1), f"atom {a}", f"normalization: price of 0 is {float(vzero[a])!r}")
                 for a in sigma[np.abs(vzero[sigma]) > tol].tolist()]
        width = 3 + n_lam + t_max + 1       # columns per sample
        shifted = 3 + n_lam + times[sigma]      # the column of X shifted at each atom's time
        atoms, rows = sigma.tolist(), np.arange(len(sigma))
        step = max(1, _CELLS // (tree.n_nodes * width))
        for lo in range(0, len(xs), step):
            x, y = xs[lo:lo + step].T, ys[lo:lo + step].T
            stack = np.empty((tree.n_nodes, width, x.shape[1]))    # rows off the cut are not read
            stack[tau.index, 0], stack[tau.index, 1] = x, y
            stack[tau.index, 2] = np.minimum(x, y)
            stack[tau.index, 3:3 + n_lam] = lam[:, None] * x[:, None] + (1 - lam)[:, None] * y[:, None]
            stack[tau.index, 3 + n_lam:] = x[:, None] + shifts[:, :, None]
            v = backward_pass(model, tau, stack.reshape(tree.n_nodes, -1)).reshape(stack.shape)
            v = v if len(sigma) == tree.n_nodes else v[sigma]
            vx, vy = v[:, 0], v[:, 1]
            for r, j in _hits(v[:, 2] > np.minimum(vx, vy) + tol):
                found.append(((2, atoms[r], lo + j), f"sample {idxs[lo + j]} atom {atoms[r]}",
                              f"monotonicity: min claim priced {v[r, 2, j]:.15g} above "
                              f"{min(vx[r, j], vy[r, j]):.15g}"))
            rhs = lam[:, None] * vx[:, None] + (1 - lam)[:, None] * vy[:, None]
            for r, e, j in _hits(v[:, 3:3 + n_lam] > rhs + tol):
                found.append(((3 + e, atoms[r], lo + j), f"sample {idxs[lo + j]} atom {atoms[r]}",
                              f"convexity at lambda={lambdas[e]}: {v[r, 3 + e, j]:.15g} > "
                              f"{rhs[r, e, j]:.15g}"))
            vt = v[rows, shifted]
            for r, j in _hits(np.abs(vt - (vx + z[sigma, None])) > tol):
                a = atoms[r]
                found.append(((int(shifted[r]), a, lo + j), f"sample {idxs[lo + j]} atom {a}",
                              f"translation invariance off by "
                              f"{abs(vt[r, j] - vx[r, j] - z[a]):.3e}"))
        for _, where, message in sorted(found, key=lambda f: f[0]):
            report.add(where, message)
    return report


def _hits(mask: np.ndarray) -> list[list[int]]:
    """The indices of the true entries of ``mask``, row-major; a test first,
    as ``np.argwhere`` costs far more when there are none."""
    return np.argwhere(mask).tolist() if mask.any() else []


@dataclass
class SublinearReport:
    sublinear: bool
    witness: tuple[Claim, float, StoppingTime, float, float] | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.sublinear


def check_sublinear(model: ScenarioModel, n_samples: int = 20,
                    lambdas: Sequence[float] = (2.0, 5.0, 17.0),
                    seed: int = 0) -> SublinearReport:
    """Sublinear iff every menu penalty is zero; falsity comes with a witness.

    The witness is a claim and scale with price(lambda X) > lambda price(X);
    when a positive-penalty entry duplicates a zero-penalty kernel it never
    becomes strictly active, and no witness exists despite the verdict.
    """
    tree = model.tree
    rng = np.random.default_rng(seed)
    structural = model.is_sublinear()
    horizon = StoppingTime.at_horizon(tree)
    root = StoppingTime.at_root(tree)
    scales = list(lambdas) + ([] if structural else [10.0 ** k for k in range(2, 9)])
    # every sample at every scale in one pass, the unscaled samples first
    xs = rng.normal(size=(n_samples, len(tree.leaves)))
    stacked = np.full((tree.n_nodes, (1 + len(scales)) * n_samples), np.nan)
    stacked[list(tree.leaves)] = np.hstack([s * xs.T for s in [1.0] + scales])
    top = backward_pass(model, horizon, stacked)[tree.root]
    scaled = top[n_samples:].reshape(len(scales), n_samples).T
    lam_base = np.array(scales) * top[:n_samples, None]
    slack = 1e-9 * (1 + np.abs(scaled))
    if structural:
        if np.any(np.abs(scaled - lam_base) > slack):
            raise TcppError("homogeneity broken on a zero-penalty model")
        return SublinearReport(sublinear=True)
    bad = np.argwhere(scaled > lam_base + slack)    # sample-major, as drawn
    if bad.size:
        i, k = bad[0]
        x = Claim(horizon, xs[i])
        return SublinearReport(False, (x, scales[k], root, float(scaled[i, k]),
                                       float(lam_base[i, k])))
    # targeted search: at each node, the claim on its children equal to a
    # positive-penalty entry's kernel, priced one step at every scale; every
    # node, entry and scale of a level group in one product, as backward_pass
    # forms it, and the first witness in node, entry, scale order
    cols = np.array([1.0] + scales)
    hits = []
    for nodes, _, kernels, penalties in model.steps(tree.leaves):
        g, w, k = kernels.shape
        claims = kernels.transpose(0, 2, 1)[..., None] * cols    # (g, arity, entry, scale)
        top = (np.einsum("gek,gkm->gem", kernels, claims.reshape(g, k, -1))
               - penalties[:, :, None]).max(axis=1).reshape(g, w, len(cols))
        scaled, lam_base = top[..., 1:], cols[1:] * top[..., :1]
        hit = (scaled > lam_base + 1e-9 * (1 + np.abs(scaled))) & (
            (penalties > 0.0) & (np.arange(w) < model.menu_sizes[nodes, None]))[..., None]
        hits += [(int(nodes[i]), j, float(scaled[i, e, j]), float(lam_base[i, e, j]),
                  kernels[i, e].tolist())
                 for i, e, j in np.argwhere(hit)[:1]]       # the group's first, nodes ascending
    if hits:
        node, j, scaled_price, lam_price, kernel = min(hits)
        kids = tree.children[node]
        off = sorted(set(tree.leaves) - set(tree.subtree_leaves(node)))
        nu = StoppingTime.of([node] + off)
        tau = StoppingTime.of(list(kids) + off)
        x = Claim(tau, {**dict(zip(kids, kernel)), **dict.fromkeys(off, 0.0)})
        return SublinearReport(False, (x, scales[j], nu, scaled_price, lam_price))
    return SublinearReport(False, None,
                           "positive penalties never strictly active; "
                           "pricing is positively homogeneous anyway")


def chain_prices(model: ScenarioModel, nu: StoppingTime, sigma: StoppingTime,
                 tau: StoppingTime, xs: Sequence[Claim]) -> tuple[np.ndarray, np.ndarray]:
    """Direct and two-step ask prices at nu of each claim at tau, a row per
    node of ``nu.sorted()`` and a column per claim: the one-chain case of
    :func:`_chain_prices`, two stacked passes."""
    for st in (nu, sigma, tau):
        validate_stopping_time(model.tree, st)
    for x in xs:
        require_finite(x, "claim value")
    return next(_chain_prices(model, tau, _columns(model.tree, tau, xs), [(nu, sigma)]))


def _chain_prices(model: ScenarioModel, tau: StoppingTime, values: np.ndarray,
                  chains: Sequence[tuple[StoppingTime, StoppingTime]]
                  ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each chain ``(nu, sigma)`` ending at tau, the direct and two-step
    prices at nu of the claims at tau in the columns of ``values``: one pass
    from tau over every claim, shared by every chain, and one pass from each
    distinct sigma over the values it leaves there."""
    direct = backward_pass(model, tau, values)
    composed: dict[StoppingTime, np.ndarray] = {}
    for nu, sigma in chains:
        if sigma not in composed:
            composed[sigma] = backward_pass(model, sigma, direct)
        yield direct[nu.index], composed[sigma][nu.index]


def check_time_consistency(evaluator: ScenarioModel | Evaluator,
                           chains: Sequence[tuple[StoppingTime, StoppingTime, StoppingTime]],
                           samples: Sequence[Claim],
                           tol: float = 1e-9) -> CheckReport:
    """Compare direct pricing against two-step composition over each chain.

    For a scenario model every chain is checked first, in order; then the
    chains that end at one cut share that cut's direct pass over its
    samples, and one composed pass per distinct sigma (:func:`_chain_prices`).
    A :class:`ClaimStack` of samples is read as its array, with no claim
    built.  Any other evaluator prices claim by claim.  Findings come chain
    by chain, then sample by sample, atoms ascending.
    """
    tree = evaluator.tree
    report = CheckReport(check="time consistency", passed=True)
    if not isinstance(evaluator, ScenarioModel):
        for ci, (nu, sigma, tau) in enumerate(chains):
            _require_ordered(tree, ci, nu, sigma, tau)
            idxs = [si for si, x in enumerate(samples) if x.at == tau]
            xs = [samples[si] for si in idxs]
            shape = (len(xs), len(nu.cut))
            direct = np.reshape([evaluator.price(x, nu).array for x in xs], shape).T
            composed = np.reshape([evaluator.price(evaluator.price(x, sigma), nu).array
                                   for x in xs], shape).T
            _chain_findings(report, ci, nu, idxs, direct, composed, tol)
        return report

    blocks: dict[StoppingTime, tuple[Sequence[int], np.ndarray]] = {}
    for ci, (nu, sigma, tau) in enumerate(chains):
        _require_ordered(tree, ci, nu, sigma, tau)
        for st in (nu, sigma, tau):
            validate_stopping_time(tree, st)
        if tau not in blocks:
            blocks[tau] = _samples_at(tree, samples, tau)
    prices: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for tau, (_, values) in blocks.items():
        ends = [ci for ci, chain in enumerate(chains) if chain[2] == tau]
        prices.update(zip(ends, _chain_prices(evaluator, tau, values,
                                              [chains[ci][:2] for ci in ends])))
    for ci, (nu, _, tau) in enumerate(chains):
        _chain_findings(report, ci, nu, blocks[tau][0], *prices[ci], tol)
    return report


def _samples_at(tree: FiltrationTree, samples: Sequence[Claim], tau: StoppingTime
                ) -> tuple[Sequence[int], np.ndarray]:
    """The indices of the samples at tau and their values as the columns of
    a node-indexed array, each checked finite in sample order."""
    if not isinstance(samples, ClaimStack) or samples.array.ndim != 2:
        idxs = [si for si, x in enumerate(samples) if x.at == tau]
        for si in idxs:
            require_finite(samples[si], "claim value")
        return idxs, _columns(tree, tau, [samples[si] for si in idxs])
    if samples.at != tau:
        return [], np.empty((tree.n_nodes, 0))
    xs = samples.array
    bad = ~np.isfinite(xs)
    if bad.any():
        i = bad.any(axis=1).argmax()
        j = bad[i].argmax()
        raise TcppError(f"claim value {xs[i, j].item()!r} at node {tau.index[j]} is not finite")
    values = np.empty((tree.n_nodes, len(xs)))       # rows off the cut are not read
    values[tau.index] = xs.T
    return range(len(xs)), values


def _require_ordered(tree: FiltrationTree, ci: int, nu: StoppingTime,
                     sigma: StoppingTime, tau: StoppingTime) -> None:
    if not (precedes(tree, nu, sigma) and precedes(tree, sigma, tau)):
        raise TcppError(f"chain {ci} is not ordered")


def _chain_findings(report: CheckReport, ci: int, nu: StoppingTime, idxs: Sequence[int],
                    direct: np.ndarray, composed: np.ndarray, tol: float) -> None:
    """Chain ``ci``'s disagreements of more than tol, sample by sample and
    atoms ascending; the first names ``info['witness_node']``."""
    for j, r in _hits((np.abs(direct - composed) > tol).T):
        a = int(nu.index[r])
        report.add(f"chain {ci} sample {idxs[j]} atom {a}",
                   f"direct {direct[r, j]:.12g} != composed {composed[r, j]:.12g}")
        report.info.setdefault("witness_node", a)


def random_stopping_time(tree: FiltrationTree, rng: np.random.Generator,
                         lo: StoppingTime | None = None,
                         hi: StoppingTime | None = None,
                         stop_prob: float = 0.5) -> StoppingTime:
    """Random antichain between lo and hi (defaults: root and horizon): below
    each node of lo, in preorder, the subtree is walked in preorder, and the
    walk stops at a node of hi, or else with probability ``stop_prob`` (one
    draw per node asked), and skips the subtree below each stop.  Without hi
    the nodes of hi are the leaves, whose preorder intervals hold one node."""
    enter, leave, order = tree.enter, tree.exit, tree.preorder
    cut, draw = None if hi is None else hi.cut, rng.random
    out = []
    for top in [tree.root] if lo is None else sorted(lo.cut, key=enter.__getitem__):
        i, end = enter[top], leave[top]
        while i < end:
            v = order[i]
            if (leave[v] == i + 1 if cut is None else v in cut) or draw() < stop_prob:
                out.append(v)
                i = leave[v]
            else:
                i += 1
    return StoppingTime(frozenset(out))


def check_supermartingale(model: ScenarioModel, x: Claim, r: Measure,
                          n_stopping: int = 10, seed: int = 0,
                          settings: Settings = DEFAULT) -> CheckReport:
    """One-step super/submartingale property of ask/bid under R, plus the
    sandwich bid <= E_R(X|.) <= ask over a generated set of stopping times.

    Preconditions (R equivalent, zero minimal penalty) are reported, not
    assumed.
    """
    tree, tol = model.tree, settings.feasibility_tol
    report = CheckReport(check="supermartingale sandwich", passed=True)
    if not r.is_equivalent():
        report.add("precondition", "R is not equivalent to P (a leaf density is 0)")
        return report
    root_st = StoppingTime.at_root(tree)
    horizon = StoppingTime.at_horizon(tree)
    pen = minimal_penalty(model, r, root_st, horizon, settings).values[tree.root]
    if not (pen <= tol):
        report.add("precondition", f"R has minimal penalty {pen!r}, expected 0")
        return report

    if x.at != horizon:
        x = lift(tree, x, horizon)
    cols = _columns(tree, horizon, [x])
    ask = backward_pass(model, horizon, cols)[:, 0]
    bid = -backward_pass(model, horizon, -cols)[:, 0]
    # one-step inequalities: E_R of the children's prices, from R's node masses
    mass = r.node_masses(tree)
    e_ask, e_bid = np.full(tree.n_nodes, np.nan), np.full(tree.n_nodes, np.nan)
    for nodes, kids in tree.levels(tree.leaves).values():
        e_ask[nodes] = (mass[kids] * ask[kids]).sum(axis=1) / mass[nodes]
        e_bid[nodes] = (mass[kids] * bid[kids]).sum(axis=1) / mass[nodes]
    for a in sorted(tree.internal_nodes(), key=tree.times.__getitem__):
        if e_ask[a] > ask[a] + tol:
            report.add(f"node {a}", f"ask not a supermartingale: "
                       f"E_R(next)={e_ask[a]:.12g} > {ask[a]:.12g}")
        if e_bid[a] < bid[a] - tol:
            report.add(f"node {a}", f"bid not a submartingale: "
                       f"E_R(next)={e_bid[a]:.12g} < {bid[a]:.12g}")
    # sandwich on deterministic and random stopping times
    rng = np.random.default_rng(seed)
    sigmas = [StoppingTime.at_time(tree, t) for t in range(tree.horizon + 1)]
    sigmas += [random_stopping_time(tree, rng) for _ in range(n_stopping)]
    e = stacked_conditional_expectation(tree, mass, horizon, cols)[:, 0]
    for sigma in sigmas:
        rows = sigma.index
        for a in rows[~((bid[rows] - tol <= e[rows]) & (e[rows] <= ask[rows] + tol))].tolist():
            report.add(f"atom {a}", f"sandwich broken: bid {bid[a]:.12g}, "
                       f"E_R {e[a]:.12g}, ask {ask[a]:.12g}")
    return report


def enumerate_stop_sets(tree: FiltrationTree, node: int, tau: StoppingTime,
                        settings: Settings = DEFAULT) -> list[tuple[int, ...]]:
    """All antichains below ``node`` stopping at or before tau.

    Each node's list is itself, then every combination of its children's
    lists, the first child varying slowest."""
    order = tree.between(node, tau.cut)
    count: dict[int, int] = {}
    for v in order:
        if v in tau.cut:
            count[v] = 1
        else:
            count[v] = 1 + math.prod(count[c] for c in tree.children[v])
    if count[node] > settings.max_enum:
        raise EnumerationOverflow(
            f"{count[node]} stopping times below node {node} exceed the cap")

    sets: dict[int, list[tuple[int, ...]]] = {}
    for v in order:
        if v in tau.cut:
            sets[v] = [(v,)]
            continue
        combos: list[tuple[int, ...]] = [()]
        for c in tree.children[v]:
            sub = sets.pop(c)
            combos = [base + s for base in combos for s in sub]
        sets[v] = [(v,)] + combos
    return sets[node]


@dataclass
class AmericanResult:
    """Best-exercise value per atom of nu, and a stop set attaining it."""

    value: Claim
    optimal: dict[int, tuple[int, ...]]


def american_price(model: ScenarioModel, payoff: Mapping[int, float],
                   nu: StoppingTime, tau: StoppingTime) -> AmericanResult:
    """Best-exercise value: esssup over stopping times between nu and tau
    of the price of the payoff process stopped there.

    That is the Snell envelope U = max(payoff, menu max of the children's
    U), one :func:`backward_pass` from tau with the payoff as floor.  The
    stop sets below a node are the node itself and the products of its
    children's stop sets, and kernel weights are nonnegative, so the best
    product is the menu maximum of the children's bests, whatever the
    penalties (convex, with a positive minimum or negative).  ``optimal[a]``
    is the first-exercise set below atom a: on each path, the first node in
    tau or where U equals the payoff.  It prices back to ``value`` exactly,
    because ``np.maximum`` returns one of its operands.
    """
    tree = model.tree
    validate_stopping_time(tree, nu)
    validate_stopping_time(tree, tau)
    if not precedes(tree, nu, tau):
        raise TcppError("american_price requires nu <= tau")
    order = [v for a in nu.cut for v in tree.between(a, tau.cut)]
    missing = sorted({v for v in order if v not in payoff})
    if missing:
        raise TcppError(f"payoff process undefined on nodes {missing}")
    require_finite({v: payoff[v] for v in order}, "payoff value")
    floor = np.full(tree.n_nodes, -np.inf)
    floor[order] = [payoff[v] for v in order]

    snell = backward_pass(model, tau, floor[:, None], floor)[:, 0]
    def exercise(v: int) -> bool:
        return v in tau.cut or snell[v] == floor[v]
    optimal = {a: tuple(tree.first_stops(a, exercise)) for a in nu.cut}
    return AmericanResult(Claim(nu, snell[nu.index]), optimal)
