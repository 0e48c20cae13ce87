"""Reference assets and spread-reduction machinery over the martingale measures.

The martingale and good-deal bounds constrain each node's one-step kernel
alone, so each is a backward induction over small per-node programs, and
constrained pricing one over per-node matrix games, each solved a level
group of ``FiltrationTree.levels`` at a time in array operations.  Suprema
over the equivalent measures equal those over the closure for linear
objectives; an edge-by-edge check reports whether equivalent ones exist.
Calibration still solves LPs over leaf masses.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (EmptyGoodDealSet, EnumerationOverflow, NoMartingaleMeasure,
                     NumericalBreakdown, TcppError)
from .lp import EQ, GE, LE, LinearProgram, solve
from .pricing import backward_pass, price, random_stopping_time
from .report import CheckReport
from .scenario import (_BATCH, ScenarioModel, _cap_supports, _kernel_max,
                       minimal_penalty)
from .settings import DEFAULT, Settings
from .tree import (Claim, FiltrationTree, Measure, StoppingTime,
                   lift_to_leaves, precedes, require_finite,
                   validate_stopping_time)


@dataclass(frozen=True)
class AssetProcess:
    """Discounted price of one reference asset, defined on every node."""

    name: str
    values: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "values", {v: float(x) for v, x in self.values.items()})
        require_finite(self.values, f"asset {self.name}: value")

    def validate(self, tree: FiltrationTree) -> None:
        missing = [v for v in range(tree.n_nodes) if v not in self.values]
        if missing:
            raise TcppError(f"asset {self.name} undefined on nodes {missing}")


@dataclass(frozen=True)
class QuotedOption:
    """Observed market quote: payoff at its maturity cut with a bid-ask band."""

    name: str
    payoff: Claim
    bid: float
    ask: float

    def __post_init__(self):
        require_finite(self.payoff, f"quote {self.name}: payoff value")
        require_finite({"bid": self.bid, "ask": self.ask}, f"quote {self.name}:")
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
        for v in self.vertices:
            if not all(math.isfinite(x) for x in v):
                raise TcppError(f"constraint vertex {v} is not finite")
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
            if not v >= 1.0:
                raise TcppError(f"good-deal cap {v!r} is not a number of at least 1; "
                                "a cap below 1 empties the scenario set")

    def cap(self, node: int) -> float:
        if node in self.per_node:
            return self.per_node[node]
        if self.default is None:
            raise TcppError(f"no good-deal cap specified for node {node}")
        return self.default

    @staticmethod
    def uniform(a: float) -> "GoodDealCaps":
        return GoodDealCaps(default=a)

    def on(self, tree: FiltrationTree) -> np.ndarray:
        """The cap of every node, infinite at the leaves."""
        internal = tree.internal_nodes()
        stray = set(self.per_node) - set(internal)
        if stray:
            raise TcppError(f"good-deal cap on node {min(stray)}, which is not an internal node")
        out = np.full(tree.n_nodes, np.inf)
        out[list(internal)] = [self.cap(v) for v in internal]
        return out


# -- extension of dynamics --------------------------------------------------

def check_extends_dynamics(model: ScenarioModel, assets: Sequence[AssetProcess],
                           n_spot: int = 5, seed: int = 0,
                           settings: Settings = DEFAULT) -> CheckReport:
    """Every menu kernel must reproduce each asset's one-step expectation;
    spot-checks integer multiples across random stopping-time pairs."""
    tree = model.tree
    tol = 1e-9
    report = CheckReport(check="extends dynamics", passed=True)
    spot = _spot(tree, assets)
    bad = []      # (asset, node, entry, expectation, value), padded entries masked
    for nodes, kids, kernels, _ in model.steps(tree.leaves):
        s_now, s_next = spot[nodes, None, :], np.einsum("gek,gkd->ged", kernels, spot[kids])
        off = (np.abs(s_next - s_now) > tol * (1.0 + np.abs(s_now))) & (
            np.arange(kernels.shape[1])[:, None] < model.menu_sizes[nodes, None, None])
        bad += [(j, nodes[i], e, s_next[i, e, j], s_now[i, 0, j]) for i, e, j in np.argwhere(off)]
    for j, node, idx, s_next, s_now in sorted(bad):
        report.add(f"node {node} entry {idx}", f"asset {assets[j].name}: kernel "
                   f"expectation {s_next:.12g} != {s_now:.12g}")
    if not report.passed:
        return report
    rng = np.random.default_rng(seed)
    mults = range(-3, 4)
    # column j * 7 + i at every node is mults[i] times asset j: all in one pass
    claims = (spot[:, :, None] * np.array(mults)).reshape(tree.n_nodes, -1)
    for _ in range(n_spot):
        tau = random_stopping_time(tree, rng)
        atoms = list(random_stopping_time(tree, rng, hi=tau).cut)
        got, want = backward_pass(model, tau, claims)[atoms], claims[atoms]
        for col, r in np.argwhere((np.abs(got - want) > tol * (1.0 + np.abs(want))).T):
            j, i = divmod(col, len(mults))
            report.add(f"atom {atoms[r]}", f"price of {mults[i]}x {assets[j].name} is "
                       f"{got[r, col]:.12g}, expected {want[r, col]:.12g}")
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


def _equivalence_margin(tree: FiltrationTree, rows, extra_rows, settings: Settings):
    """Solution of: maximize the minimum density over the polytope, the
    leaf masses followed by the margin."""
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
    return sol


@dataclass
class MmeBounds:
    lower: float
    upper: float
    has_equivalent: bool

    def __iter__(self):
        return iter((self.lower, self.upper))


def mme_bounds(tree: FiltrationTree, assets: Sequence[AssetProcess], x: Claim,
               settings: Settings = DEFAULT) -> MmeBounds:
    """Sub- and surreplication prices, and whether an equivalent martingale
    measure exists, by :func:`_kernel_bounds` without caps."""
    return MmeBounds(*_kernel_bounds(tree, assets, x, np.full(tree.n_nodes, np.inf),
                                     settings))


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
        sol = _equivalence_margin(tree, rows, _quote_rows(tree, quotes), settings)
    except NoMartingaleMeasure:
        return None
    if sol.value <= settings.equivalence_floor:
        return None
    return Measure.from_leaf_masses(tree, sol.point[:len(tree.leaves)])


def check_strong_admissibility(model: ScenarioModel, assets: Sequence[AssetProcess],
                               quotes: Sequence[QuotedOption],
                               n_measures: int = 8, seed: int = 0,
                               settings: Settings = DEFAULT) -> CheckReport:
    """Extends the dynamics, reprices every quote inside its observed band,
    and satisfies the calibrated penalty floor on sampled measures: per-node
    Dirichlet mixtures of the menu kernels, so mixtures of selections."""
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
    menus = {v: np.array([e.kernel for e in model.menus[v]]) for v in tree.internal_nodes()}
    taus = [q.payoff.at for q in quotes] + [StoppingTime.at_horizon(tree)]
    for i in range(n_measures):
        mixed = {v: rng.dirichlet(np.ones(len(k))) @ k for v, k in menus.items()}
        r = Measure.from_leaf_masses(tree, tree.product_down(mixed)[list(tree.leaves)])
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


# -- good-deal bounds and the node-local induction behind both bounds --------

def good_deal_bounds(tree: FiltrationTree, assets: Sequence[AssetProcess],
                     caps: GoodDealCaps, x: Claim,
                     settings: Settings = DEFAULT) -> tuple[float, float]:
    """Price bounds over martingale measures whose kernel at each node n has
    second moment sum q_c^2 / p_c at most cap(n)^2, by :func:`_kernel_bounds`.
    A cap of 1 leaves only the reference kernel (Cauchy-Schwarz equality)."""
    return _kernel_bounds(tree, assets, x, caps.on(tree), settings)[:2]


def _kernel_bounds(tree: FiltrationTree, assets: Sequence[AssetProcess], x: Claim,
                   cap: np.ndarray, settings: Settings) -> tuple[float, float, bool]:
    """Extremes of E_Q x over the measures whose kernel at each node n lies in
    K_n = {q >= 0, sum q = 1, q . (S(c) - S(n)) = 0, sum q_c^2/p_c <= cap[n]^2},
    and whether one of them is equivalent to P.

    The family is stable under pasting, so a bound is the induction
    U(n) = max over q in K_n of q . U(children).  An empty K_n gives -inf,
    which the parent avoids; an empty root raises :class:`NoMartingaleMeasure`,
    or :class:`EmptyGoodDealSet` if only the caps empty it, naming the first
    node whose own constraints are empty.  An equivalent measure exists when
    every edge (n, c) is charged, max q_c over K_n above
    ``equivalence_floor``: the product of the nodes' averages of their
    charging kernels is one."""
    validate_stopping_time(tree, x.at)
    require_finite(x, "claim value")
    spot = _spot(tree, assets)
    steps = []
    for (t, k), (nodes, kids) in tree.levels(tree.leaves).items():
        size = k if np.isfinite(cap[nodes]).any() else min(k, len(assets) + 1)
        _cap_supports(k, size, settings,
                      f"kernel supports per node at time {t} (arity {k})")
        steps.append((nodes, kids, size))
    values = np.empty((2, tree.n_nodes))      # the lower side negated, the upper side
    values[:, list(tree.leaves)] = np.outer([-1.0, 1.0], lift_to_leaves(tree, x))
    charged = True
    for nodes, kids, size in steps:
        v = values[:, kids]
        edges = np.where(np.isinf(v).any(0), -np.inf, np.eye(kids.shape[1])[:, None, :])
        out = _kernel_max(np.array([tree.p_kernel(n) for n in nodes]),
                          spot[kids] - spot[nodes][:, None, :], cap[nodes],
                          np.concatenate([v, edges]), size, settings)
        values[:, nodes] = out[:2]
        charged &= bool((out[2:] > settings.equivalence_floor).all())
    dead = np.isinf(values).any(0)
    if dead[tree.root]:
        node = next(v for v in tree.preorder
                    if dead[v] and not dead[list(tree.children[v])].any())
        if np.isfinite(cap).any():
            _kernel_bounds(tree, assets, x, np.full(tree.n_nodes, np.inf), settings)
            raise EmptyGoodDealSet(f"caps exclude every martingale kernel at node {node}")
        raise NoMartingaleMeasure(f"no martingale kernel at node {node}")
    return -float(values[0, tree.root]), float(values[1, tree.root]), charged


# -- portfolio constraints ---------------------------------------------------

def constrained_price(tree: FiltrationTree, assets: Sequence[AssetProcess],
                      h_set: ConstraintSet, x: Claim,
                      settings: Settings = DEFAULT) -> Claim:
    """Backward induction with the one-step upper-variation penalty.

    At each node the scenario kernel q ranges over the whole child simplex
    and pays sup over hedge vertices of h . E_q(dS), so the node's value is
    the value of the matrix game M[h, c] = V(c) - h . (S(c) - S(node)),
    max over q of min over h of (M q)_h.  Nodes of one level do not depend
    on each other, so each (level, arity) group is solved at once in array
    operations by :func:`_game_bounds`: linear in nodes, no LP per node.
    The value is the best kernel-guaranteed payoff, certified by the best
    hedge mixture; a gap between the two above the feasibility tolerance
    raises :class:`NumericalBreakdown` naming the node.  The claim's value
    process at the root is returned.
    """
    if len(assets) != h_set.dim:
        raise TcppError("constraint set dimension must match the asset count")
    if not h_set.contains_zero(settings):
        raise TcppError("constraint set must contain the zero position")
    validate_stopping_time(tree, x.at)
    spot = _spot(tree, assets)
    groups = tree.levels(x.at.cut)
    m = len(h_set.vertices)
    for t, k in groups:
        count = sum(math.comb(m, s) * math.comb(k, s)
                    for s in range(1, min(h_set.dim + 1, m, k) + 1))
        if count > settings.max_enum:
            raise EnumerationOverflow(
                f"{count} game kernels per node at time {t} (arity {k}, {m} "
                f"vertices) exceed the cap {settings.max_enum}")

    values = np.full(tree.n_nodes, np.nan)
    values[x.at.index] = x.array
    hedge = np.array(h_set.vertices, dtype=float)
    for nodes, kids in groups.values():
        drift = spot[kids] - spot[nodes][:, None, :]
        pay = values[kids][:, None, :] - np.einsum("md,gkd->gmk", hedge, drift)
        lower, upper = _game_bounds(pay, min(h_set.dim + 1, m, kids.shape[1]), settings)
        ok = (np.isfinite(lower) & np.isfinite(upper)
              & (upper - lower <= settings.feasibility_tol * (1.0 + np.abs(upper))))
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise NumericalBreakdown(
                f"constrained price at node {nodes[i]}: the kernel value "
                f"{lower[i]!r} and its hedge certificate {upper[i]!r} disagree")
        values[nodes] = lower
    return Claim(StoppingTime.at_root(tree), values[[tree.root]])


def _spot(tree: FiltrationTree, assets: Sequence[AssetProcess]) -> np.ndarray:
    """Asset values as a (node, asset) array, each checked to cover the tree."""
    for asset in assets:
        asset.validate(tree)
    return np.array([[a.values[v] for a in assets] for v in range(tree.n_nodes)],
                    dtype=float).reshape(tree.n_nodes, len(assets))


def _game_bounds(pay: np.ndarray, size: int,
                 settings: Settings) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the values of a stack of matrix games
    ``pay[g]``, whose rows minimize and whose columns maximize.

    Shapley and Snow: an optimal pair of strategies is the pair of
    equalizing mixtures of some square kernel of the matrix.  Every kernel
    of up to ``size`` rows and columns is tried; a mixture counts only if it
    lies in the simplex to the feasibility tolerance, and it is evaluated
    against the whole matrix after clipping, so lower <= value <= upper
    holds whatever the solves return, with equality once a kernel of an
    optimal pair is among those tried.  ``size`` may stop at one more than
    the rank of the row differences.
    """
    g, m, k = pay.shape
    step = max(1, _BATCH // g)
    lower = np.full(g, -np.inf)
    upper = np.full(g, np.inf)
    for s in range(1, size + 1):
        pairs = np.array([r + c for r in itertools.combinations(range(m), s)
                          for c in itertools.combinations(range(k), s)])
        for lo in range(0, len(pairs), step):
            rows, cols = pairs[lo:lo + step, :s], pairs[lo:lo + step, s:]
            sub = pay[:, rows[:, :, None], cols[:, None, :]]
            q, q_ok = _equalizer(sub, settings)
            lam, lam_ok = _equalizer(sub.swapaxes(-1, -2), settings)
            guard = np.einsum("gmKs,gKs->gKm", pay[:, :, cols], q).min(axis=2)
            cap = np.einsum("gKsk,gKs->gKk", pay[:, rows, :], lam).max(axis=2)
            lower = np.maximum(lower, np.where(q_ok, guard, -np.inf).max(axis=1))
            upper = np.minimum(upper, np.where(lam_ok, cap, np.inf).min(axis=1))
    return lower, upper


def _equalizer(sub: np.ndarray, settings: Settings) -> tuple[np.ndarray, np.ndarray]:
    """Mixture over the columns of each square block that pays every row the
    same: the solution of [1 ... 1; B_r - B_0] q = e_1, which the kernel of
    an optimal pair makes nonsingular whatever the game's value.  Returns
    the mixtures, clipped into the simplex, and a mask of those that are
    nonsingular and nonnegative to the feasibility tolerance."""
    s = sub.shape[-1]
    a = np.concatenate([np.ones(sub.shape[:-2] + (1, s)),
                        sub[..., 1:, :] - sub[..., :1, :]], axis=-2)
    # |det| against the product of row norms (Hadamard's bound) is scale-free;
    # a NaN entry masks its block here and fails the caller's gap check
    with np.errstate(invalid="ignore"):
        ok = np.abs(np.linalg.det(a)) > settings.rank_tol * np.prod(
            np.linalg.norm(a, axis=-1), axis=-1)
    a[~ok] = np.eye(s)
    rhs = np.zeros(a.shape[:-1] + (1,))
    rhs[..., 0, 0] = 1.0
    mix = np.linalg.solve(a, rhs)[..., 0]
    ok &= np.all(mix >= -settings.feasibility_tol, axis=-1)
    mix = np.where(ok[..., None], np.maximum(mix, 0.0), 1.0)
    return mix / mix.sum(axis=-1, keepdims=True), ok
