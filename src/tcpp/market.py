"""Reference assets and spread-reduction machinery over the martingale polytope.

All optimizations run over leaf masses of the closed martingale-measure
polytope; suprema over the equivalent (relatively open) measures coincide
with suprema over the closure for linear objectives, and a max-min-density
side check reports whether equivalent points exist at all.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (EmptyGoodDealSet, NoMartingaleMeasure, NumericalBreakdown,
                     TcppError)
from .lp import EQ, GE, LE, LinearProgram, solve
from .pricing import price
from .report import CheckReport
from .scenario import ScenarioModel, enumerate_selections, minimal_penalty, \
    selection_to_measure
from .settings import DEFAULT, Settings
from .tree import (Claim, FiltrationTree, Measure, StoppingTime,
                   lift_to_leaves, precedes, validate_stopping_time)


@dataclass(frozen=True)
class AssetProcess:
    """Discounted price of one reference asset, defined on every node."""

    name: str
    values: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "values", {v: float(x) for v, x in self.values.items()})

    def validate(self, tree: FiltrationTree) -> None:
        missing = [v for v in range(tree.n_nodes) if v not in self.values]
        if missing:
            raise TcppError(f"asset {self.name} undefined on nodes {missing}")

    def claim_at(self, tau: StoppingTime) -> Claim:
        return Claim(tau, {v: self.values[v] for v in tau.cut})


@dataclass(frozen=True)
class QuotedOption:
    """Observed market quote: payoff at its maturity cut with a bid-ask band."""

    name: str
    payoff: Claim
    bid: float
    ask: float

    def __post_init__(self):
        if self.bid > self.ask:
            raise TcppError(f"quote {self.name}: bid {self.bid} exceeds ask {self.ask}")


class ConstraintSet:
    """Compact polyhedron of admissible hedge positions, as its vertex list."""

    def __init__(self, vertices: Sequence[Sequence[float]]):
        if not vertices:
            raise TcppError("constraint set needs at least one vertex")
        d = len(vertices[0])
        if any(len(v) != d for v in vertices):
            raise TcppError("constraint vertices must share one dimension")
        self.vertices = tuple(tuple(float(x) for x in v) for v in vertices)
        self.dim = d

    def contains_zero(self, settings: Settings = DEFAULT) -> bool:
        k = len(self.vertices)
        lp = LinearProgram(
            objective=[0.0] * k,
            constraints=[([v[i] for v in self.vertices], EQ, 0.0) for i in range(self.dim)]
            + [([1.0] * k, EQ, 1.0)],
            sense="min",
        )
        return solve(lp, settings).status == "optimal"

    @staticmethod
    def from_halfspaces(a: np.ndarray, b: np.ndarray,
                        settings: Settings = DEFAULT) -> "ConstraintSet":
        """Vertex-enumerate {h : A h <= b}; practical for dimension <= 4."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        m, d = a.shape
        for j in range(d):
            for sense in (1.0, -1.0):
                lp = LinearProgram(
                    objective=[sense if i == j else 0.0 for i in range(d)],
                    constraints=[(a[i], LE, b[i]) for i in range(m)],
                    lower=[-np.inf] * d, sense="max",
                )
                if solve(lp, settings).status == "unbounded":
                    raise TcppError("halfspace system is unbounded; no vertex form")
        verts = []
        for rows in itertools.combinations(range(m), d):
            sub = a[list(rows)]
            if abs(np.linalg.det(sub)) < settings.rank_tol:
                continue
            h = np.linalg.solve(sub, b[list(rows)])
            if np.all(a @ h <= b + 1e-9):
                if not any(np.allclose(h, np.asarray(v), atol=1e-9) for v in verts):
                    verts.append(tuple(h))
        if not verts:
            raise TcppError("halfspace system has no vertices (empty or degenerate)")
        return ConstraintSet(verts)


class GoodDealCaps:
    """Per-node or global bound on the one-step second moment of dQ/dP."""

    def __init__(self, default: float | None = None,
                 per_node: Mapping[int, float] | None = None):
        self.default = default
        self.per_node = dict(per_node or {})
        for v in list(self.per_node.values()) + ([default] if default is not None else []):
            if v < 1.0:
                raise TcppError(f"good-deal cap {v} < 1 empties the scenario set")

    def cap(self, node: int) -> float:
        if node in self.per_node:
            return self.per_node[node]
        if self.default is None:
            raise TcppError(f"no good-deal cap specified for node {node}")
        return self.default

    @staticmethod
    def uniform(a: float) -> "GoodDealCaps":
        return GoodDealCaps(default=a)


# -- extension of dynamics --------------------------------------------------

def check_extends_dynamics(model: ScenarioModel, assets: Sequence[AssetProcess],
                           n_spot: int = 5, seed: int = 0,
                           settings: Settings = DEFAULT) -> CheckReport:
    """Every menu kernel must reproduce each asset's one-step expectation;
    spot-checks integer multiples across random stopping-time pairs."""
    from .pricing import random_stopping_time

    tree = model.tree
    tol = 1e-9
    report = CheckReport(check="extends dynamics", passed=True)
    for asset in assets:
        asset.validate(tree)
        for node in tree.internal_nodes():
            s_now = asset.values[node]
            for idx, entry in enumerate(model.menus[node]):
                s_next = sum(entry.kernel[i] * asset.values[c]
                             for i, c in enumerate(tree.children[node]))
                if abs(s_next - s_now) > tol * (1.0 + abs(s_now)):
                    report.add(f"node {node} entry {idx}",
                               f"asset {asset.name}: kernel expectation "
                               f"{s_next:.12g} != {s_now:.12g}")
    if not report.passed:
        return report
    rng = np.random.default_rng(seed)
    for _ in range(n_spot):
        tau = random_stopping_time(tree, rng)
        sigma = random_stopping_time(tree, rng, hi=tau)
        for asset in assets:
            for mult in range(-3, 4):
                target = asset.claim_at(tau)
                got = price(model, float(mult) * target, sigma)
                for a in sigma.cut:
                    want = mult * asset.values[a]
                    if abs(got.values[a] - want) > tol * (1.0 + abs(want)):
                        report.add(f"atom {a}",
                                   f"price of {mult}x {asset.name} is "
                                   f"{got.values[a]:.12g}, expected {want:.12g}")
    return report


# -- martingale polytope -----------------------------------------------------

def _martingale_rows(tree: FiltrationTree,
                     assets: Sequence[AssetProcess]) -> list[tuple[list[float], str, float]]:
    nl = len(tree.leaves)
    rows = []
    for asset in assets:
        asset.validate(tree)
        for node in tree.internal_nodes():
            coef = [0.0] * nl
            for c in tree.children[node]:
                for leaf in tree.subtree_leaves(c):
                    coef[tree.leaf_index[leaf]] += asset.values[c]
            for leaf in tree.subtree_leaves(node):
                coef[tree.leaf_index[leaf]] -= asset.values[node]
            rows.append((coef, EQ, 0.0))
    rows.append(([1.0] * nl, EQ, 1.0))
    return rows


def _equivalence_margin(tree: FiltrationTree, rows, extra_rows,
                        settings: Settings) -> float:
    """Optimal value of: maximize the minimum density over the polytope."""
    nl = len(tree.leaves)
    w = [tree.leaf_weights[v] for v in tree.leaves]
    lp = LinearProgram(
        objective=[0.0] * nl + [1.0],
        constraints=[(r + [0.0], rel, b) for r, rel, b in rows + extra_rows]
        + [([1.0 if j == i else 0.0 for j in range(nl)] + [-w[i]], GE, 0.0)
           for i in range(nl)],
        sense="max",
    )
    sol = solve(lp, settings)
    if sol.status != "optimal":
        raise NoMartingaleMeasure("martingale polytope is empty")
    return sol.value


@dataclass
class MmeBounds:
    lower: float
    upper: float
    equivalent_margin: float
    has_equivalent: bool

    def __iter__(self):
        return iter((self.lower, self.upper))


def mme_bounds(tree: FiltrationTree, assets: Sequence[AssetProcess], x: Claim,
               settings: Settings = DEFAULT) -> MmeBounds:
    """Sub- and surreplication prices: extreme expectations over the closed
    martingale polytope, with an equivalence-margin side check."""
    validate_stopping_time(tree, x.at)
    rows = _martingale_rows(tree, assets)
    coef = lift_to_leaves(tree, x)
    out = []
    for sense in ("min", "max"):
        sol = solve(LinearProgram(list(coef), rows, sense=sense), settings)
        if sol.status != "optimal":
            raise NoMartingaleMeasure(f"martingale polytope is empty ({sol.status})")
        out.append(sol.value)
    margin = _equivalence_margin(tree, rows, [], settings)
    return MmeBounds(out[0], out[1], margin,
                     margin > settings.equivalence_floor)


def check_price_in_mme_bounds(model: ScenarioModel, assets: Sequence[AssetProcess],
                              claims: Claim | Sequence[Claim],
                              settings: Settings = DEFAULT) -> CheckReport:
    """Four-way sandwich at the root: sub <= bid <= ask <= sup."""
    tree = model.tree
    tol = 1e-9
    report = CheckReport(check="price within martingale bounds", passed=True)
    dyn = check_extends_dynamics(model, assets, n_spot=0, settings=settings)
    if not dyn.passed:
        report.add("precondition", "model does not extend the asset dynamics")
        report.findings.extend(dyn.findings)
        return report
    root = StoppingTime.at_root(tree)
    for i, x in enumerate([claims] if isinstance(claims, Claim) else list(claims)):
        bounds = mme_bounds(tree, assets, x, settings)
        ask = price(model, x, root).values[tree.root]
        bid = -price(model, -x, root).values[tree.root]
        chain = [(bounds.lower, "sub"), (bid, "bid"), (ask, "ask"), (bounds.upper, "sup")]
        for (lo, lo_name), (hi, hi_name) in zip(chain, chain[1:]):
            if lo > hi + tol:
                report.add(f"claim {i}", f"{lo_name} {lo:.12g} exceeds {hi_name} {hi:.12g}")
    return report


# -- calibration -------------------------------------------------------------

def _quote_rows(tree: FiltrationTree, quotes: Sequence[QuotedOption]
                ) -> list[tuple[list[float], str, float]]:
    rows = []
    for q in quotes:
        coef = list(lift_to_leaves(tree, q.payoff))
        rows.append((coef, GE, q.bid))
        rows.append((coef, LE, q.ask))
    return rows


def calibration_feasible(tree: FiltrationTree, assets: Sequence[AssetProcess],
                         quotes: Sequence[QuotedOption],
                         settings: Settings = DEFAULT) -> Measure | None:
    """Equivalent martingale measure reproducing every quote inside its band,
    found by maximizing the minimum density; None when only degenerate
    (non-equivalent) solutions exist."""
    rows = _martingale_rows(tree, assets)
    try:
        margin = _equivalence_margin(tree, rows, _quote_rows(tree, quotes), settings)
    except NoMartingaleMeasure:
        return None
    if margin <= settings.equivalence_floor:
        return None
    nl = len(tree.leaves)
    w = [tree.leaf_weights[v] for v in tree.leaves]
    lp = LinearProgram(
        objective=[0.0] * nl + [1.0],
        constraints=[(r + [0.0], rel, b)
                     for r, rel, b in rows + _quote_rows(tree, quotes)]
        + [([1.0 if j == i else 0.0 for j in range(nl)] + [-w[i]], GE, 0.0)
           for i in range(nl)],
        sense="max",
    )
    sol = solve(lp, settings)
    return Measure.from_leaf_masses(tree, sol.point[:nl])


def check_strong_admissibility(model: ScenarioModel, assets: Sequence[AssetProcess],
                               quotes: Sequence[QuotedOption],
                               n_measures: int = 8, seed: int = 0,
                               settings: Settings = DEFAULT) -> CheckReport:
    """Extends the dynamics, reprices every quote inside its observed band,
    and satisfies the calibrated penalty floor on sampled measures."""
    tree = model.tree
    tol = 1e-9
    report = check_extends_dynamics(model, assets, n_spot=2, seed=seed,
                                    settings=settings)
    report.check = "strong admissibility"
    root = StoppingTime.at_root(tree)
    for q in quotes:
        ask = price(model, q.payoff, root).values[tree.root]
        bid = -price(model, -q.payoff, root).values[tree.root]
        if bid < q.bid - tol:
            report.add(f"quote {q.name}",
                       f"model bid {bid:.12g} below observed bid {q.bid:.12g}")
        if ask > q.ask + tol:
            report.add(f"quote {q.name}",
                       f"model ask {ask:.12g} above observed ask {q.ask:.12g}")

    # penalty floor: minimal penalty >= max(0, bid - E_R Y, E_R Y - ask)
    rng = np.random.default_rng(seed)
    sels = list(enumerate_selections(model, settings))
    horizon = StoppingTime.at_horizon(tree)
    taus = [q.payoff.at for q in quotes] + [horizon]
    for i in range(n_measures):
        weights = rng.dirichlet(np.ones(len(sels)))
        masses = np.zeros(len(tree.leaves))
        for wgt, sel in zip(weights, sels):
            masses += wgt * selection_to_measure(model, sel).leaf_masses(tree)
        r = Measure.from_leaf_masses(tree, masses)
        for tau in taus:
            floor = 0.0
            for q in quotes:
                if not precedes(tree, q.payoff.at, tau):
                    continue
                e = float(lift_to_leaves(tree, q.payoff) @ r.leaf_masses(tree))
                floor = max(floor, q.bid - e, e - q.ask)
            pen = minimal_penalty(model, r, root, tau, settings).values[tree.root]
            if pen < floor - tol:
                report.add(f"sampled measure {i}",
                           f"penalty {pen:.12g} below calibrated floor {floor:.12g}")
    return report


def calibrated_bounds(tree: FiltrationTree, assets: Sequence[AssetProcess],
                      quotes: Sequence[QuotedOption], x: Claim,
                      settings: Settings = DEFAULT) -> tuple[float, float]:
    """Quote-penalized price bounds: extremes of E_Q(X) -/+ beta(Q) where
    beta is the worst quote-band violation of Q; always nested inside the
    unquoted bounds."""
    rows = _martingale_rows(tree, assets)
    nl = len(tree.leaves)
    cx = lift_to_leaves(tree, x)
    cy = [lift_to_leaves(tree, q.payoff) for q in quotes]

    def one_side(sense: str) -> float:
        cons = [(r + [0.0], rel, b) for r, rel, b in rows]
        cons.append((list(-cx) + [1.0], LE if sense == "max" else GE, 0.0))
        for q, c in zip(quotes, cy):
            if sense == "max":
                cons.append((list(-(cx + c)) + [1.0], LE, -q.bid))
                cons.append((list(-(cx - c)) + [1.0], LE, q.ask))
            else:
                cons.append((list(-(cx - c)) + [1.0], GE, q.bid))
                cons.append((list(-(cx + c)) + [1.0], GE, -q.ask))
        lp = LinearProgram([0.0] * nl + [1.0], cons,
                           lower=[0.0] * nl + [-np.inf], sense=sense)
        sol = solve(lp, settings)
        if sol.status != "optimal":
            raise NoMartingaleMeasure(f"calibrated bound LP is {sol.status}")
        return sol.value

    return one_side("min"), one_side("max")


# -- good-deal bounds --------------------------------------------------------

def good_deal_bounds(tree: FiltrationTree, assets: Sequence[AssetProcess],
                     caps: GoodDealCaps, x: Claim,
                     settings: Settings = DEFAULT) -> tuple[float, float]:
    """Price bounds over martingale measures with capped one-step second
    moments, by cutting planes on the per-node cone constraints.

    A cap of exactly 1 pins the kernel to the reference one at that node
    (Cauchy-Schwarz equality) and is handled by linear rows directly.
    """
    validate_stopping_time(tree, x.at)
    base = _martingale_rows(tree, assets)
    nl = len(tree.leaves)
    coef = lift_to_leaves(tree, x)
    internal = tree.internal_nodes()

    pinned: list[tuple[list[float], str, float]] = []
    capped_nodes = []
    for node in internal:
        a_cap = caps.cap(node)
        if a_cap == 1.0:
            pker = tree.p_kernel(node)
            for i, c in enumerate(tree.children[node]):
                row = [0.0] * nl
                for leaf in tree.subtree_leaves(c):
                    row[tree.leaf_index[leaf]] += 1.0
                for leaf in tree.subtree_leaves(node):
                    row[tree.leaf_index[leaf]] -= pker[i]
                pinned.append((row, EQ, 0.0))
        else:
            capped_nodes.append(node)

    def one_side(sense: str) -> float:
        cuts: list[tuple[list[float], str, float]] = []
        for round_no in range(settings.max_cut_rounds):
            sol = solve(LinearProgram(list(coef), base + pinned + cuts, sense=sense),
                        settings)
            if sol.status != "optimal":
                if round_no == 0 and not cuts:
                    raise NoMartingaleMeasure("martingale polytope is empty")
                raise EmptyGoodDealSet(
                    "second-moment caps exclude every martingale measure")
            mu = sol.point
            # one supporting cut per violated node per round; nodes whose
            # mass-weighted violation is below LP precision cannot move the
            # bound and their cuts would not bite, so they are left alone
            violated = []
            for node in capped_nodes:
                mass_n = sum(mu[tree.leaf_index[v]] for v in tree.subtree_leaves(node))
                if mass_n <= 1e-12:
                    continue
                pker = tree.p_kernel(node)
                qker = [sum(mu[tree.leaf_index[v]] for v in tree.subtree_leaves(c)) / mass_n
                        for c in tree.children[node]]
                viol = sum(qq * qq / pp for qq, pp in zip(qker, pker)) - caps.cap(node) ** 2
                if viol > settings.cut_tol and mass_n * viol > 10 * settings.feasibility_tol:
                    violated.append(node)
            if not violated:
                return sol.value
            for node in violated:
                cuts.append(_soc_cut(tree, mu, node, caps.cap(node), nl))
        raise NumericalBreakdown("cutting planes failed to converge")

    lo = one_side("min")
    hi = one_side("max")
    return lo, hi


def _soc_cut(tree: FiltrationTree, mu: np.ndarray, node: int, a_cap: float,
             nl: int) -> tuple[list[float], str, float]:
    """Supporting hyperplane of ||(mass_c/sqrt(p_c))|| <= cap * mass_node at mu."""
    pker = tree.p_kernel(node)
    child_mass = [sum(mu[tree.leaf_index[v]] for v in tree.subtree_leaves(c))
                  for c in tree.children[node]]
    norm = math.sqrt(sum(m * m / p for m, p in zip(child_mass, pker)))
    row = [0.0] * nl
    for (c, m, p) in zip(tree.children[node], child_mass, pker):
        g = m / (p * norm)
        for leaf in tree.subtree_leaves(c):
            row[tree.leaf_index[leaf]] += g
    for leaf in tree.subtree_leaves(node):
        row[tree.leaf_index[leaf]] -= a_cap
    return (row, LE, 0.0)


# -- portfolio constraints ---------------------------------------------------

def constrained_price(tree: FiltrationTree, assets: Sequence[AssetProcess],
                      h_set: ConstraintSet, x: Claim,
                      settings: Settings = DEFAULT) -> Claim:
    """Backward induction with the one-step upper-variation penalty.

    At each node the scenario kernel ranges over the whole child simplex and
    pays sup over hedge vertices of h . (E_q dS); the claim's value process
    at the root is returned.
    """
    if len(assets) != h_set.dim:
        raise TcppError("constraint set dimension must match the asset count")
    if not h_set.contains_zero(settings):
        raise TcppError("constraint set must contain the zero position")
    validate_stopping_time(tree, x.at)
    for asset in assets:
        asset.validate(tree)

    values: dict[int, float] = dict(x.values)
    for node in tree.between(tree.root, x.at.cut):
        if node in x.at.cut:
            continue
        children = tree.children[node]
        k = len(children)
        cons: list[tuple[list[float], str, float]] = []
        for h in h_set.vertices:
            # z - sum_c q_c (V(c) - h . S(c)) <= - h . S(node)... rearranged
            coefs = [-(values[c] - sum(hk * a.values[c] for hk, a in zip(h, assets)))
                     for c in children] + [1.0]
            rhs = sum(hk * a.values[node] for hk, a in zip(h, assets))
            cons.append((coefs, LE, rhs))
        cons.append(([1.0] * k + [0.0], EQ, 1.0))
        lp = LinearProgram([0.0] * k + [1.0], cons,
                           lower=[0.0] * k + [-np.inf], sense="max")
        sol = solve(lp, settings)
        if sol.status != "optimal":
            raise TcppError(f"node LP at {node} is {sol.status}; "
                            "the constraint set must be compact and contain 0")
        values[node] = sol.value
    return Claim(StoppingTime.at_root(tree), {tree.root: values[tree.root]})
