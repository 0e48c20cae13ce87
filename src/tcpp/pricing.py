"""Pricing engine: ask/bid evaluation and the checks behind its axioms.

The production evaluator is backward induction over the menu maxima, which
is linear in nodes times menu size.  The enumeration of scenario selections
only backs test oracles and witness searches; it is exponential and capped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Protocol, Sequence

import numpy as np

from .errors import EnumerationOverflow, TcppError
from .report import CheckReport
from .scenario import (MeasureSelection, MenuEntry, PenaltyProcess,
                       ScenarioModel, minimal_penalty, subtree_duals)
from .settings import DEFAULT, Settings
from .tree import (Claim, FiltrationTree, Measure, StoppingTime,
                   conditional_expectation, lift, precedes,
                   validate_stopping_time)


def backward_pass(model: ScenarioModel, at: StoppingTime,
                  rows: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Menu-maximum recursion from the cut to the root, vectorized over claims.

    ``rows[b]`` holds the claim values (any common shape) at cut node b; the
    result carries one array per cut node and per strict ancestor.
    """
    tree = model.tree
    values: dict[int, np.ndarray] = {b: np.asarray(rows[b], dtype=float) for b in at.cut}
    for node in tree.between(tree.root, at.cut):
        if node in at.cut:
            continue
        stack = np.stack([values[c] for c in tree.children[node]])
        best = None
        for entry in model.menus[node]:
            cand = np.asarray(entry.kernel) @ stack - entry.penalty
            best = cand if best is None else np.maximum(best, cand)
        values[node] = best
    return values


def price(model: ScenarioModel, x: Claim, sigma: StoppingTime) -> Claim:
    """Ask price of x at sigma via backward induction."""
    tree = model.tree
    validate_stopping_time(tree, x.at)
    validate_stopping_time(tree, sigma)
    if not precedes(tree, sigma, x.at):
        raise TcppError("pricing time must precede the claim's stopping time")
    values = backward_pass(model, x.at, {b: np.array([v]) for b, v in x.values.items()})
    return Claim(sigma, {a: float(values[a][0]) for a in sigma.cut})


def price_enumerated(model: ScenarioModel, x: Claim, sigma: StoppingTime,
                     settings: Settings = DEFAULT) -> Claim:
    """Dual-representation oracle: esssup over enumerated selections."""
    tree = model.tree
    if not precedes(tree, sigma, x.at):
        raise TcppError("pricing time must precede the claim's stopping time")
    vals = {}
    for a in sigma.cut:
        duals = subtree_duals(model, a, x.at, settings)
        vals[a] = max(sum(m.get(b, 0.0) * x.values[b] for b in m) - p
                      for m, p in duals)
    return Claim(sigma, vals)


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
            for v in b.at.cut:
                if b.values[v] > a.values[v] + 1e-9:
                    raise TcppError(f"bid exceeds ask at node {v}")


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


class TabularEvaluator:
    """Family of measures with penalties tabulated per stopping-time pair.

    Nothing forces the table to satisfy the penalty cocycle, so this is the
    vehicle for non-rectangular (time-inconsistent) counterexamples.
    """

    def __init__(self, tree: FiltrationTree, kernels: list[dict[int, tuple[float, ...]]],
                 table: dict[tuple[frozenset, frozenset], list[Claim]]):
        self.tree = tree
        self.kernels = kernels
        self.table = table

    def price(self, x: Claim, sigma: StoppingTime) -> Claim:
        key = (sigma.cut, x.at.cut)
        if key not in self.table:
            raise TcppError("no penalty tabulated for this stopping-time pair")
        pens = self.table[key]
        vals = {}
        for a in sigma.cut:
            best = None
            for i in range(len(self.kernels)):
                mass = self.tree.forward_mass(a, x.at.cut, self.kernels[i].__getitem__)
                v = sum(mass.get(b, 0.0) * x.values[b] for b in x.at.cut)
                v -= pens[i].values[a]
                best = v if best is None else max(best, v)
            vals[a] = best
        return Claim(sigma, vals)


def non_rectangular_counterexample() -> tuple[TabularEvaluator, ScenarioModel, PenaltyProcess]:
    """Two-period family whose direct and two-step prices disagree at the root.

    Returns the tabular evaluator, the rectangular model carrying the same
    kernels and one-step penalties, and the tabulated cumulative penalty as
    a penalty process; the latter breaks the cocycle at the root, which is
    also where the time-consistency witness sits.
    """
    tree = FiltrationTree.binomial(2)
    k1 = {0: (0.5, 0.5), 1: (0.5, 0.5), 2: (0.5, 0.5)}
    k2 = {0: (0.9, 0.1), 1: (0.9, 0.1), 2: (0.1, 0.9)}
    t0 = StoppingTime.at_root(tree)
    t1 = StoppingTime.at_time(tree, 1)
    t2 = StoppingTime.at_horizon(tree)
    zero = Claim.constant
    table = {
        (t0.cut, t1.cut): [zero(t0, 0.0), zero(t0, 0.10)],
        (t1.cut, t2.cut): [zero(t1, 0.0), zero(t1, 0.05)],
        (t0.cut, t2.cut): [zero(t0, 0.0), zero(t0, 0.30)],
        (t0.cut, t0.cut): [zero(t0, 0.0), zero(t0, 0.0)],
    }
    evaluator = TabularEvaluator(tree, [k1, k2], table)
    menus = {
        v: [MenuEntry(k1[v], 0.0), MenuEntry(k2[v], 0.10 if v == 0 else 0.05)]
        for v in tree.internal_nodes()
    }
    model = ScenarioModel(tree, menus)
    sel = MeasureSelection.of({0: 1, 1: 1, 2: 1})
    supplied = {v: 0.0 for v in range(tree.n_nodes)}
    supplied[0] = 0.30        # tabulated alpha_{0,2}; cocycle demands 0.15
    supplied[1] = supplied[2] = 0.05
    penalty = PenaltyProcess(sel, supplied)
    return evaluator, model, penalty


def deterministic_vs_stopping_counterexample() -> tuple[TabularEvaluator, StoppingTime]:
    """Family consistent across every deterministic chain yet inconsistent
    across one genuinely random stopping time.

    A single reference kernel drives every evaluation, except that pricing
    from the mixed cut {up, down-down, down-up} back to time zero unlocks a
    second scenario (its penalty is infinite for every other pair).  Each
    member of the family satisfies the pricing axioms on its own, and no
    chain of deterministic cuts ever sees the extra scenario.
    """
    inf = float("inf")
    tree = FiltrationTree.binomial(2)
    base = {0: (0.5, 0.5), 1: (0.5, 0.5), 2: (0.5, 0.5)}
    extra = {0: (0.2, 0.8), 1: (0.5, 0.5), 2: (0.5, 0.5)}
    t0 = StoppingTime.at_root(tree)
    t1 = StoppingTime.at_time(tree, 1)
    t2 = StoppingTime.at_horizon(tree)
    mixed = StoppingTime.of([1, 5, 6])

    def pens(sigma: StoppingTime, extra_pen: float) -> list[Claim]:
        return [Claim.constant(sigma, 0.0), Claim.constant(sigma, extra_pen)]

    table = {
        (t0.cut, t1.cut): pens(t0, inf),
        (t1.cut, t2.cut): pens(t1, inf),
        (t0.cut, t2.cut): pens(t0, inf),
        (mixed.cut, t2.cut): pens(mixed, inf),
        (t0.cut, mixed.cut): pens(t0, 0.0),
    }
    return TabularEvaluator(tree, [base, extra], table), mixed


def check_axioms(model: ScenarioModel, samples: Sequence[tuple[Claim, Claim]],
                 lambdas: Sequence[float] = (0.0, 0.3, 0.5, 1.0),
                 seed: int = 0, tol: float = 1e-12) -> CheckReport:
    """Verify monotonicity, translation invariance, convexity, normalization.

    Each sample is a pair of claims at a common stopping time; conditioning
    times run over all deterministic cuts preceding it.  Violations are
    reported with the sample index and atom as witnesses.
    """
    tree = model.tree
    rng = np.random.default_rng(seed)
    report = CheckReport(check="pricing axioms", passed=True)
    for node, msg in model.normalization_findings():
        report.add(f"node {node}", f"normalization: {msg}")

    groups: dict[frozenset, list[int]] = {}
    for i, (x, y) in enumerate(samples):
        if x.at != y.at:
            raise TcppError(f"sample {i} mixes stopping times")
        groups.setdefault(x.at.cut, []).append(i)

    for cut, idxs in groups.items():
        tau = StoppingTime(cut)
        atoms = sorted(cut)
        k = len(idxs)
        X = np.array([[samples[i][0].values[b] for i in idxs] for b in atoms])
        Y = np.array([[samples[i][1].values[b] for i in idxs] for b in atoms])

        def rows(m: np.ndarray) -> dict[int, np.ndarray]:
            return {b: m[j] for j, b in enumerate(atoms)}

        vx = backward_pass(model, tau, rows(X))
        vy = backward_pass(model, tau, rows(Y))
        vmin = backward_pass(model, tau, rows(np.minimum(X, Y)))
        vzero = backward_pass(model, tau, rows(np.zeros_like(X[:, :1])))
        t_max = min(tree.times[b] for b in cut)
        sigma_nodes = [a for a in vx if tree.times[a] <= t_max]

        for a in sigma_nodes:
            if abs(float(vzero[a][0])) > tol:
                report.add(f"atom {a}", f"normalization: price of 0 is {float(vzero[a][0])!r}")
            bad = np.flatnonzero(vmin[a] > np.minimum(vx[a], vy[a]) + tol)
            for j in bad:
                report.add(f"sample {idxs[j]} atom {a}",
                           f"monotonicity: min claim priced {vmin[a][j]:.15g} above "
                           f"{min(vx[a][j], vy[a][j]):.15g}")
        for lam in lambdas:
            vc = backward_pass(model, tau, rows(lam * X + (1 - lam) * Y))
            for a in sigma_nodes:
                rhs = lam * vx[a] + (1 - lam) * vy[a]
                bad = np.flatnonzero(vc[a] > rhs + tol)
                for j in bad:
                    report.add(f"sample {idxs[j]} atom {a}",
                               f"convexity at lambda={lam}: {vc[a][j]:.15g} > {rhs[j]:.15g}")
        # translation invariance with a random F_sigma-measurable shift
        for t in range(t_max + 1):
            sig_atoms = [a for a in sigma_nodes if tree.times[a] == t]
            z = {a: rng.uniform(-2.0, 2.0) for a in sig_atoms}
            anc_of = tree.owners(sig_atoms, atoms)
            shift = np.array([[z[anc_of[b]]] * k for b in atoms])
            vt = backward_pass(model, tau, rows(X + shift))
            for a in sig_atoms:
                bad = np.flatnonzero(np.abs(vt[a] - (vx[a] + z[a])) > tol)
                for j in bad:
                    report.add(f"sample {idxs[j]} atom {a}",
                               f"translation invariance off by "
                               f"{abs(vt[a][j] - vx[a][j] - z[a]):.3e}")
    return report


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
    if structural:
        for _ in range(n_samples):
            x = Claim(horizon, {b: rng.normal() for b in tree.leaves})
            base = price(model, x, root).values[tree.root]
            for lam in lambdas:
                scaled = price(model, lam * x, root).values[tree.root]
                if abs(scaled - lam * base) > 1e-9 * (1 + abs(scaled)):
                    raise TcppError("homogeneity broken on a zero-penalty model")
        return SublinearReport(sublinear=True)

    scales = list(lambdas) + [10.0 ** k for k in range(2, 9)]
    for _ in range(n_samples):
        x = Claim(horizon, {b: rng.normal() for b in tree.leaves})
        base = price(model, x, root).values[tree.root]
        for lam in scales:
            scaled = price(model, lam * x, root).values[tree.root]
            if scaled > lam * base + 1e-9 * (1 + abs(scaled)):
                return SublinearReport(False, (x, lam, root, scaled, lam * base))
    # targeted search: align the claim with a positive-penalty kernel
    for node in tree.internal_nodes():
        entries = model.menus[node]
        for e in entries:
            if e.penalty <= 0.0:
                continue
            off = sorted(set(tree.leaves) - set(tree.subtree_leaves(node)))
            nu = StoppingTime.of([node] + off)
            tau = StoppingTime.of(list(tree.children[node]) + off)
            vals = {c: e.kernel[i] for i, c in enumerate(tree.children[node])}
            vals.update({b: 0.0 for b in off})
            x = Claim(tau, vals)
            base = price(model, x, nu).values[node]
            for lam in scales:
                scaled = price(model, lam * x, nu).values[node]
                if scaled > lam * base + 1e-9 * (1 + abs(scaled)):
                    return SublinearReport(False, (x, lam, nu, scaled, lam * base))
    return SublinearReport(False, None,
                           "positive penalties never strictly active; "
                           "pricing is positively homogeneous anyway")


def check_time_consistency(evaluator: ScenarioModel | Evaluator,
                           chains: Sequence[tuple[StoppingTime, StoppingTime, StoppingTime]],
                           samples: Sequence[Claim],
                           tol: float = 1e-9) -> CheckReport:
    """Compare direct pricing against two-step composition over each chain."""
    evaluate = (partial(price, evaluator) if isinstance(evaluator, ScenarioModel)
                else evaluator.price)
    tree = evaluator.tree
    report = CheckReport(check="time consistency", passed=True)
    for ci, (nu, sigma, tau) in enumerate(chains):
        if not (precedes(tree, nu, sigma) and precedes(tree, sigma, tau)):
            raise TcppError(f"chain {ci} is not ordered")
        for si, x in enumerate(samples):
            if x.at != tau:
                continue
            direct = evaluate(x, nu)
            composed = evaluate(evaluate(x, sigma), nu)
            for a in nu.cut:
                gap = abs(direct.values[a] - composed.values[a])
                if gap > tol:
                    report.add(f"chain {ci} sample {si} atom {a}",
                               f"direct {direct.values[a]:.12g} != composed "
                               f"{composed.values[a]:.12g}")
                    report.info.setdefault("witness_node", a)
    return report


def random_stopping_time(tree: FiltrationTree, rng: np.random.Generator,
                         lo: StoppingTime | None = None,
                         hi: StoppingTime | None = None,
                         stop_prob: float = 0.5) -> StoppingTime:
    """Random antichain between lo and hi (defaults: root and horizon)."""
    lo = lo if lo is not None else StoppingTime.at_root(tree)
    hi = hi if hi is not None else StoppingTime.at_horizon(tree)
    cut: list[int] = []
    # preorder, left to right, skipping the subtree below each stop
    i, inside_until = 0, 0
    while i < tree.n_nodes:
        v = tree.preorder[i]
        if v in lo.cut:
            inside_until = max(inside_until, tree.exit[v])
        if i < inside_until and (v in hi.cut or rng.random() < stop_prob):
            cut.append(v)
            i = tree.exit[v]
        else:
            i += 1
    return StoppingTime.of(cut)


def check_supermartingale(model: ScenarioModel, x: Claim, r: Measure,
                          n_stopping: int = 10, seed: int = 0,
                          settings: Settings = DEFAULT) -> CheckReport:
    """One-step super/submartingale property of ask/bid under R, plus the
    sandwich bid <= E_R(X|.) <= ask over a generated set of stopping times.

    Preconditions (R equivalent, zero minimal penalty) are reported, not
    assumed.
    """
    tree = model.tree
    tol = 1e-9
    report = CheckReport(check="supermartingale sandwich", passed=True)
    if not r.is_equivalent():
        report.add("precondition", "R is not equivalent to P (a leaf density is 0)")
        return report
    root_st = StoppingTime.at_root(tree)
    horizon = StoppingTime.at_horizon(tree)
    pen = minimal_penalty_root(model, r, settings)
    if not (pen <= settings.feasibility_tol):
        report.add("precondition", f"R has minimal penalty {pen!r}, expected 0")
        return report

    if x.at != horizon:
        x = lift(tree, x, horizon)
    va = backward_pass(model, horizon, {b: np.array([v]) for b, v in x.values.items()})
    vb = backward_pass(model, horizon, {b: np.array([-v]) for b, v in x.values.items()})
    ask = {v: float(va[v][0]) for v in va}
    bid = {v: -float(vb[v][0]) for v in vb}
    # one-step inequalities
    for t in range(tree.horizon):
        cut_next = StoppingTime.at_time(tree, t + 1)
        ask_next = Claim(cut_next, {b: ask[b] for b in cut_next.cut})
        bid_next = Claim(cut_next, {b: bid[b] for b in cut_next.cut})
        e_ask = conditional_expectation(tree, r, ask_next, StoppingTime.at_time(tree, t))
        e_bid = conditional_expectation(tree, r, bid_next, StoppingTime.at_time(tree, t))
        for a in tree.nodes_at(t):
            if e_ask.values[a] > ask[a] + tol:
                report.add(f"node {a}", f"ask not a supermartingale: "
                           f"E_R(next)={e_ask.values[a]:.12g} > {ask[a]:.12g}")
            if e_bid.values[a] < bid[a] - tol:
                report.add(f"node {a}", f"bid not a submartingale: "
                           f"E_R(next)={e_bid.values[a]:.12g} < {bid[a]:.12g}")
    # sandwich on deterministic and random stopping times
    rng = np.random.default_rng(seed)
    sigmas = [StoppingTime.at_time(tree, t) for t in range(tree.horizon + 1)]
    sigmas += [random_stopping_time(tree, rng) for _ in range(n_stopping)]
    for sigma in sigmas:
        e = conditional_expectation(tree, r, x, sigma)
        for a in sigma.cut:
            if not (bid[a] - tol <= e.values[a] <= ask[a] + tol):
                report.add(f"atom {a}", f"sandwich broken: bid {bid[a]:.12g}, "
                           f"E_R {e.values[a]:.12g}, ask {ask[a]:.12g}")
    return report


def minimal_penalty_root(model: ScenarioModel, r: Measure,
                         settings: Settings = DEFAULT) -> float:
    tree = model.tree
    claim = minimal_penalty(model, r, StoppingTime.at_root(tree),
                            StoppingTime.at_horizon(tree), settings)
    return claim.values[tree.root]


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
    value: Claim
    induction: Claim
    agree: bool
    optimal: dict[int, tuple[int, ...]] = field(default_factory=dict)


def american_price(model: ScenarioModel, payoff: Mapping[int, float],
                   nu: StoppingTime, tau: StoppingTime,
                   settings: Settings = DEFAULT) -> AmericanResult:
    """Best-exercise value: esssup over enumerated stopping times of the
    price of stopping there, with a backward-induction candidate.

    Enumeration is ground truth; whether induction matches it for convex
    (non-sublinear) models is reported per instance, never assumed.
    """
    tree = model.tree
    if not precedes(tree, nu, tau):
        raise TcppError("american_price requires nu <= tau")
    order = [v for a in nu.cut for v in tree.between(a, tau.cut)]
    missing = sorted({v for v in order if v not in payoff})
    if missing:
        raise TcppError(f"payoff process undefined on nodes {missing}")

    vals: dict[int, float] = {}
    best_sets: dict[int, tuple[int, ...]] = {}
    for a in nu.cut:
        rest = tuple(nu.cut - {a})      # completes each stop set to a cut
        best = None
        for stop in enumerate_stop_sets(tree, a, tau, settings):
            sub_rows = {v: np.array([payoff[v]]) for v in stop + rest}
            v = backward_pass(model, StoppingTime.of(stop + rest), sub_rows)[a][0]
            if best is None or v > best + 0.0:
                best, best_sets[a] = float(v), stop
        vals[a] = best

    induction: dict[int, float] = {}
    for v in order:
        if v in tau.cut:
            induction[v] = payoff[v]
        else:
            cont = None
            for entry in model.menus[v]:
                c = sum(entry.kernel[i] * induction[ch]
                        for i, ch in enumerate(tree.children[v])) - entry.penalty
                cont = c if cont is None else max(cont, c)
            induction[v] = max(payoff[v], cont)
    ind_claim = Claim(nu, {a: induction[a] for a in nu.cut})
    val_claim = Claim(nu, vals)
    agree = val_claim.allclose(ind_claim, 1e-9)
    return AmericanResult(val_claim, ind_claim, agree, best_sets)
