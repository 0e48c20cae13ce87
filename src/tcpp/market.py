"""Reference assets and spread-reduction machinery over the martingale measures.

The martingale and good-deal bounds constrain each node's one-step kernel
alone, so each is a backward induction over small per-node programs, and
constrained pricing one over per-node matrix games, each solved a level
group of ``FiltrationTree.levels`` at a time in array operations.  Suprema
over the equivalent measures equal those over the closure for linear
objectives; an edge-by-edge check reports whether equivalent ones exist.
Without caps a node's program is linear over its martingale kernels, so
its optimum is one of their vertices, which depend on the reference
kernels and the asset moves alone.  They are the menus of one zero-penalty
scenario model per market, solved once per stack of level groups of one
arity and support size, and every use without caps is one
:func:`tcpp.pricing.backward_pass` over them: the martingale bounds (and the
good-deal bounds at an infinite cap) are its bid and ask, and one column
generation takes extreme martingale measures from its argmax; the edge
check and R read the menus.  Its master LP has a variable per column and
the quote-band violation: the quote-penalized bounds maximize E X less
that violation, and calibration minimizes it from R, the product of every
node's mean vertex kernel.  Calibration returns R where R prices each
quote inside its band, else the mixture of R and those measures that the
column generation finds.  LPs remain in that master and in
:class:`ConstraintSet`; none is over leaves.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (EmptyGoodDealSet, EnumerationOverflow, NoMartingaleMeasure,
                     NumericalBreakdown, TcppError)
from .lp import EQ, GE, LE, LinearProgram, solve
from .pricing import backward_pass, price, random_stopping_time
from .report import CheckReport
from .scenario import (_BATCH, _CELLS, ScenarioModel, _cap_supports, _kernel_max,
                       _slice_batches, _slice_cells, _vertex_kernels, minimal_penalty)
from .settings import DEFAULT, RANK_TOL, Settings, pinned
from .tree import (Claim, FiltrationTree, Measure, StoppingTime,
                   lift_to_leaves, precedes, require_finite,
                   validate_stopping_time)


class AssetProcess:
    """Discounted price of one reference asset, defined on every node.

    The values are one read-only float array indexed by node, NaN where the
    asset is undefined, given as that array or as a mapping from the nodes;
    ``values`` is their mapping view, of Python floats, built on first use
    from an array and kept as given from a mapping.
    """

    def __init__(self, name: str, values: Mapping[int, float] | np.ndarray):
        self.name = name
        if isinstance(values, Mapping):
            view = {v: float(x) for v, x in values.items()}
            require_finite(view, f"asset {name}: value")
            self.values = MappingProxyType(view)
            array = np.fromiter(map(view.get, range(len(view)), itertools.repeat(np.nan)), float,
                                len(view))
        else:
            array = np.array(values, dtype=float)
            if np.isinf(array).any():
                require_finite(dict(enumerate(array.tolist())), f"asset {name}: value")
        array.flags.writeable = False
        self.array = array

    @functools.cached_property
    def values(self) -> Mapping[int, float]:
        return MappingProxyType({v: x for v, x in enumerate(self.array.tolist()) if x == x})

    def on(self, tree: FiltrationTree) -> np.ndarray:
        """The value at every node of ``tree``, one array; raise naming the
        nodes where the asset is undefined."""
        n = tree.n_nodes
        head = self.array[:n]
        if len(head) == n and not np.isnan(head).any():
            return head
        missing = [v for v in range(n) if v not in self.values]
        if missing:
            raise TcppError(f"asset {self.name} undefined on nodes {missing}")
        return np.fromiter(map(self.values.__getitem__, range(n)), float, n)

    def validate(self, tree: FiltrationTree) -> None:
        self.on(tree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssetProcess):
            return NotImplemented
        return self.name == other.name and self.values == other.values

    def __repr__(self) -> str:
        return f"AssetProcess({self.name!r}, {dict(self.values)})"


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
        settings = pinned(settings)
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
            if abs(np.linalg.det(sub)) < RANK_TOL:
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
        stray = [v for v in self.per_node if not (0 <= v < tree.n_nodes and tree.arity[v])]
        if stray:
            raise TcppError(f"good-deal cap on node {min(stray)}, which is not an internal node")
        internal = tree.arity > 0
        out = np.where(internal, np.nan if self.default is None else self.default, np.inf)
        out[list(self.per_node)] = list(self.per_node.values())
        if np.isnan(out).any():
            self.cap(int(np.isnan(out).argmax()))      # raises, naming the node
        return out


# -- extension of dynamics --------------------------------------------------

def check_extends_dynamics(model: ScenarioModel, assets: Sequence[AssetProcess],
                           n_spot: int = 5, seed: int = 0,
                           settings: Settings = DEFAULT) -> CheckReport:
    """Every menu kernel must reproduce each asset's one-step expectation;
    spot-checks integer multiples across random stopping-time pairs."""
    tree, tol = model.tree, settings.feasibility_tol
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


# -- martingale bounds ------------------------------------------------------

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
    measure exists: the bid and the ask of the menus of vertex kernels of
    :func:`_vertex_table` (:func:`_uncapped_bounds`), and their edge test
    (:func:`_equivalent`).  Raises :class:`EnumerationOverflow` when a
    level group's kernel supports exceed ``max_enum``, and
    :class:`NoMartingaleMeasure` when the root has no martingale kernel."""
    validate_stopping_time(tree, x.at)
    require_finite(x, "claim value")
    settings = pinned(settings)
    menus = _vertex_table(tree, assets, settings)
    return MmeBounds(*_uncapped_bounds(menus, x), _equivalent(menus, settings))


def _uncapped_bounds(menus: ScenarioModel, x: Claim) -> tuple[float, float]:
    """The least and the largest E_Q x over the martingale measures: minus
    the ask of -x and the ask of x under the vertex-kernel ``menus``, one
    :func:`tcpp.pricing.backward_pass` over the two columns on the leaves."""
    tree = menus.tree
    top = _leaf_pass(menus, np.outer(lift_to_leaves(tree, x), [-1.0, 1.0]))[tree.root]
    return -float(top[0]), float(top[1])


def _leaf_pass(menus: ScenarioModel, leaf_values: np.ndarray,
               argmax: np.ndarray | None = None) -> np.ndarray:
    """:func:`tcpp.pricing.backward_pass` from the leaves over ``menus``, of
    the columns of ``leaf_values`` (a row per leaf)."""
    horizon = StoppingTime.at_horizon(menus.tree)
    values = np.empty((menus.tree.n_nodes, leaf_values.shape[1]))      # only the leaves are read
    values[horizon.index] = leaf_values         # tree.leaves ascend
    return backward_pass(menus, horizon, values, argmax=argmax)


def _equivalent(menus: ScenarioModel, settings: Settings) -> bool:
    """Whether every edge (n, c) has weight above ``equivalence_floor`` in
    some vertex kernel at n of ``menus``: then the product of the nodes'
    mean vertex kernels is an equivalent martingale measure."""
    return all((kernels.max(axis=1) > settings.equivalence_floor).all()
               for kernels, _ in menus.packed.values())


def check_price_in_mme_bounds(model: ScenarioModel, assets: Sequence[AssetProcess],
                              claims: Claim | Sequence[Claim],
                              settings: Settings = DEFAULT) -> CheckReport:
    """Four-way sandwich at the root: sub <= bid <= ask <= sup."""
    tree, tol = model.tree, settings.feasibility_tol
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

def calibration_feasible(tree: FiltrationTree, assets: Sequence[AssetProcess],
                         quotes: Sequence[QuotedOption],
                         settings: Settings = DEFAULT) -> Measure | None:
    """An equivalent martingale measure pricing every quote inside its
    band, or None when none exists.

    The edge test (:func:`_equivalent`) of the vertex-kernel menus of
    :func:`_vertex_table` and the column generation of
    :func:`_calibrated_mixture` give the verdict.  None when some edge is
    charged by no martingale kernel.  Otherwise R, the product of the
    menus' mixtures (each node's mean usable vertex kernel), is a
    martingale measure that charges every edge, and it is returned when it
    prices every quote inside its band to ``feasibility_tol`` with every
    leaf density above ``equivalence_floor``.  Else the column generation,
    from R on the zero claim, decides (its phase 1 is minus the least band
    violation) and gives the calibrated mixture of R and extreme martingale
    measures with the largest weight on R, if its least density is above
    the floor: any equivalent calibrated Q is c R + (1 - c) Q' for some
    c > 0.  The bands are a verdict's, to ``feasibility_tol``;
    the menus, R's martingale check and the masters are numbers, at
    :func:`tcpp.settings.pinned`.

    Supports beyond ``max_enum`` raise :class:`EnumerationOverflow`, as in
    :func:`mme_bounds`; a kernel of R that misses the martingale condition
    by more than the pinned tolerance, :class:`NumericalBreakdown` naming
    its node.
    """
    spot, exact = _spot(tree, assets), pinned(settings)
    steps = _level_steps(tree, spot)
    try:
        menus = _vertex_table(tree, assets, exact, steps)
    except NoMartingaleMeasure:
        return None
    if not _equivalent(menus, exact):
        return None
    leaves = list(tree.leaves)
    pay = np.array([lift_to_leaves(tree, q.payoff) for q in quotes]).reshape(-1, len(leaves)).T
    bid, ask = np.array([(q.bid, q.ask) for q in quotes]).reshape(-1, 2).T
    mass = tree.product_down(menus.mixture())
    _check_martingale(steps, spot, mass, exact)
    first = mass[leaves]
    price, tol = pay.T @ first, settings.feasibility_tol
    density = first / np.array([tree.leaf_weights[v] for v in leaves])
    if (((price >= bid - tol) & (price <= ask + tol)).all()
            and density.min() > settings.equivalence_floor):
        return Measure.from_leaf_masses(tree, first)
    found = _calibrated_mixture(menus, [first], np.zeros(len(leaves)), pay, bid, ask, settings,
                                floor=-settings.feasibility_tol)
    if found is None:
        return None
    q = Measure.from_leaf_masses(tree, found[1])
    return q if min(q.density.values()) > settings.equivalence_floor else None


def _check_martingale(steps, spot: np.ndarray, mass: np.ndarray, settings: Settings) -> None:
    """Raise :class:`NumericalBreakdown` at a node whose kernel of ``mass`` is
    not a martingale's; a node of no mass has none, and passes."""
    for nodes, kids, _, drift in steps:
        kernel = mass[kids] / np.where(mass[nodes, None] != 0.0, mass[nodes, None], 1.0)
        gap = np.abs(np.einsum("gc,gcd->gd", kernel, drift))
        off = gap.max(1, initial=0.0) > settings.feasibility_tol * (1.0 + np.abs(spot[nodes]).max(1, initial=0.0))
        if off.any():
            i = int(off.argmax())
            raise NumericalBreakdown(f"calibrated kernel at node {nodes[i]} misses the martingale "
                                     f"condition by {gap[i].max()!r}")


def _calibrated_mixture(menus: ScenarioModel, masses: list, x: np.ndarray, pay: np.ndarray,
                        bid: np.ndarray, ask: np.ndarray, settings: Settings,
                        floor: float | None = None, best: float = np.inf
                        ) -> tuple[float, np.ndarray] | None:
    """Phase 1: max over the martingale measures Q of E_Q x - s(Q) for the
    leaf claim ``x``, s(Q) being Q's largest violation of a quote band (the
    quotes are the columns of ``pay``), and the leaf masses of a Q that
    attains it.  Dantzig-Wolfe column generation from the columns
    ``masses``: each master is one :func:`tcpp.lp.solve` over the columns'
    weights w and s, with rows E_w Y - s <= ask, E_w Y + s >= bid and
    sum w = 1, its objective row scaled by a power of 2 of the largest
    |E_Q x| (exact, and 1 when x is 0), as the LP's tolerances are
    absolute.  Its duals pi of the quote rows and mu of the sum price a new
    column, :func:`_upper_column` on x - pi . Y; the master plus that value
    less mu bounds the phase above.  The phase ends once the least bound,
    from ``best`` on, meets the master to the induction's rounding, checked
    after each master and each pricing.  A ``floor`` (for x = 0) ends
    phase 1 also once the master reaches it, or the bound falls below it:
    None below it, else phase 2 maximizes the first column's weight with s
    held at phase 1's, by the same rule, and returns phase 1's value with
    its mixture.  :class:`NumericalBreakdown` when a master is not optimal
    or a phase is still open after ``_ROUNDS`` rounds."""
    tree, k, value = menus.tree, len(bid), None      # value: phase 1's, once it ends
    for _ in range(_ROUNDS):
        n, prices, gain = len(masses), pay.T @ np.transpose(masses), x @ np.transpose(masses)
        size = 2.0 ** int(np.frexp(np.abs(gain).max())[1])
        lp = LinearProgram(np.eye(n + 1)[0] if value is not None else np.r_[gain, -1.0] / size,
                           [(list(y) + [-1.0], LE, a) for y, a in zip(prices, ask)]
                           + [(list(y) + [1.0], GE, b) for y, b in zip(prices, bid)]
                           + [([1.0] * n + [0.0], EQ, 1.0)],
                           upper=[np.inf] * n + [np.inf if value is None else -value])
        sol = solve(lp, pinned(settings))
        if sol.status != "optimal":
            raise NumericalBreakdown(f"column generation: the master LP over {n} columns "
                                     f"is {sol.status}")
        master = size * sol.value
        pi, mu = size * (sol.dual_point[:k] + sol.dual_point[k:2 * k]), size * sol.dual_point[-1]
        tol = _induction_rounding(tree, np.column_stack([x, pay * pi]), np.array([mu]))
        done = best - master <= tol or (floor is not None and master >= floor)
        if not done:
            rate, mass = _upper_column(menus, x - pay @ pi)
            best = min(best, master + (rate - mu))
            done = best - master <= tol or (floor is not None and best < floor)
        if not done:
            masses.append(mass)
            continue
        if floor is None:
            break
        if master < floor:
            return None
        value, floor, best = master, None, np.inf
    else:
        raise NumericalBreakdown(
            f"column generation: the bracket [{master!r}, {best!r}] is still open after "
            f"{_ROUNDS} rounds ({k} quotes, {tree.n_nodes} nodes)")
    return (master if value is None else value,
            np.maximum(sol.point[:n], 0.0) @ np.array(masses))


# rounding of one level of an upper induction, a sum of a few products,
# relative to its size
_ROUNDING = 64.0 * np.finfo(float).eps


def check_strong_admissibility(model: ScenarioModel, assets: Sequence[AssetProcess],
                               quotes: Sequence[QuotedOption],
                               n_measures: int = 8, seed: int = 0,
                               settings: Settings = DEFAULT) -> CheckReport:
    """Extends the dynamics, reprices every quote inside its observed band,
    and satisfies the calibrated penalty floor on sampled measures: per-node
    Dirichlet mixtures of the menu kernels, so mixtures of selections."""
    tree, tol = model.tree, settings.feasibility_tol
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
    taus = [q.payoff.at for q in quotes] + [StoppingTime.at_horizon(tree)]
    for i in range(n_measures):
        weights = np.zeros((tree.n_nodes, model.menu_sizes.max()))
        for v in np.flatnonzero(model.menu_sizes).tolist():      # one draw per node, ascending
            weights[v, :model.menu_sizes[v]] = rng.dirichlet(np.ones(model.menu_sizes[v]))
        mixed = np.zeros((tree.n_nodes, int(tree.arity.max())))
        for nodes, _, k, _ in model.steps(tree.leaves):
            mixed[nodes, :k.shape[2]] = np.einsum("ge,gek->gk", weights[nodes, :k.shape[1]], k)
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
    """Quote-penalized price bounds: extremes of E_Q(X) -/+ beta(Q) over the
    martingale measures M, where beta is the worst quote-band violation of
    Q; always nested inside the unquoted bounds.

    The upper bound is phase 1 of calibration's column generation
    (:func:`_calibrated_mixture`) on the leaf claim X, from the two seed
    columns of :func:`_calibrated_upper`; the lower bound is minus that of
    -X.  Both read the vertex kernels of :func:`_vertex_table` (the menus
    of :func:`mme_bounds`, built once for both sides): a pricing step is
    one upper induction over them, whose argmax kernels give an extreme
    martingale measure.  The value returned is attained by a martingale
    measure, a column or the master's mixture of columns.

    A node whose kernel supports exceed ``max_enum`` raises
    :class:`EnumerationOverflow`, as in :func:`mme_bounds`; an empty M raises
    :class:`NoMartingaleMeasure` naming the node whose own kernels are
    empty; a bracket still open after ``_ROUNDS`` rounds raises
    :class:`NumericalBreakdown`.
    """
    validate_stopping_time(tree, x.at)
    require_finite(x, "claim value")
    settings = pinned(settings)
    menus = _vertex_table(tree, assets, settings)
    leaf = lift_to_leaves(tree, x)
    pay = np.array([lift_to_leaves(tree, q.payoff) for q in quotes]).reshape(-1, len(leaf)).T
    bid, ask = np.array([(q.bid, q.ask) for q in quotes]).reshape(-1, 2).T
    low = 0.0 - _calibrated_upper(menus, -leaf, pay, bid, ask, settings)
    return low, _calibrated_upper(menus, leaf, pay, bid, ask, settings)


def _calibrated_upper(menus: ScenarioModel, x: np.ndarray, pay: np.ndarray, bid: np.ndarray,
                      ask: np.ndarray, settings: Settings) -> float:
    """max over Q in M of E_Q x - beta(Q) for the leaf claim ``x``.  The
    argmax Q of x bounds it from above by its induction and from below by
    its least piece: E_Q x, E_Q x + E_Q Y_j - bid_j or E_Q x - E_Q Y_j +
    ask_j.  While they are apart, the argmax of that piece is a second
    column and bound; then the masters run, so none is on one column."""
    moves = np.column_stack([np.zeros_like(x), pay, -pay])      # each piece's claim, less x
    offset = np.r_[0.0, -bid, ask]
    tol = _induction_rounding(menus.tree, np.column_stack([x, pay]), offset)
    masses, best, lower, piece = [], np.inf, -np.inf, 0
    for _ in range(2):
        value, mass = _upper_column(menus, x + moves[:, piece])
        pieces = mass @ (x[:, None] + moves) + offset
        best, lower = min(best, value + offset[piece]), max(lower, float(pieces.min()))
        if best - lower <= tol:
            return lower
        masses.append(mass)
        piece = int(pieces.argmin())
    return _calibrated_mixture(menus, masses, x, pay, bid, ask, settings, best=best)[0]


# column-generation rounds (masters) per calibrated bound and per calibration
# verdict; 520 calls on seeded trinomial markets of 1-6 periods with up to 4
# quotes needed at most 5 per end past its seed columns (79 ends needed any),
# and 280 seeded calibration markets at most 7, both phases together
_ROUNDS = 100


def _induction_rounding(tree: FiltrationTree, pay: np.ndarray, offset: np.ndarray) -> float:
    """The rounding of an upper induction on a leaf claim of at most the
    columns of ``pay`` summed, plus at most ``offset``: the column
    generation's tolerance."""
    scale = 1.0 + np.abs(pay).max(0, initial=0.0).sum() + np.abs(offset).max(initial=0.0)
    return _ROUNDING * (tree.horizon + 1) * scale


def _upper_column(menus: ScenarioModel, claim: np.ndarray) -> tuple[float, np.ndarray]:
    """max over Q in M of E_Q of the leaf claim, the ask of the vertex-kernel
    ``menus``, and the leaf masses of the product Q of the pass's argmax
    kernels."""
    tree = menus.tree
    best = np.zeros((tree.n_nodes, 1), dtype=int)
    value = _leaf_pass(menus, claim[:, None], best)[tree.root, 0]
    return float(value), tree.product_down(menus.chosen(best[:, 0]))[list(tree.leaves)]


def _vertex_table(tree: FiltrationTree, assets: Sequence[AssetProcess], settings: Settings,
                  steps: list | None = None) -> ScenarioModel:
    """The usable vertex kernels of :func:`_vertex_kernels` of every node,
    those whose support holds no child without one, as the menus of a
    zero-penalty :class:`ScenarioModel` (:meth:`ScenarioModel.of_packed`),
    each node's vertices in the order found; a node without one holds one
    zero kernel, worth 0 in a backward pass, which only its parent's zero
    weights read.  ``steps`` are those of :func:`_level_steps`, built here
    when not given.  The vertices depend on the reference kernels and the
    asset moves alone, so the level groups of one arity and support size
    are solved as one stack, once per support batch; the filter then runs a
    level group at a time, deepest first.  The support decides, not the
    weights, so no zero weight meets a child that has no vertex.  The menus
    hold arity + 1 numbers per vertex and padding, whose count per node the
    supports tried, at most ``max_enum``, bound, and they are held whole
    while the bounds read them.  Raises :class:`EnumerationOverflow` naming
    the first level group whose supports exceed ``max_enum``, before any
    solve, and :class:`NoMartingaleMeasure` when the root has no kernel."""
    if steps is None:
        steps = _level_steps(tree, _spot(tree, assets))
    sizes = [_kernel_support_size(tree, nodes, kids.shape[1], len(assets), settings)
             for nodes, kids, *_ in steps]
    found = [None] * len(steps)
    for size, members, p, drift, starts in _stacks(steps, sizes):
        node, *rest = _vertex_kernels(p, drift, size, settings)
        cut = np.searchsorted(node, starts)
        for i, first, lo, hi in zip(members, starts, cut, cut[1:]):
            found[i] = (node[lo:hi] - first, *(z[lo:hi] for z in rest))
    alive = np.ones(tree.n_nodes, dtype=bool)
    packed, menu_sizes = {}, np.zeros(tree.n_nodes, dtype=int)
    for key, (nodes, kids, p, _), size, (node, sup, width, y0) in zip(
            tree.levels(tree.leaves), steps, sizes, found):
        fine = ~((np.arange(size) < width[:, None]) & ~alive[kids[node[:, None], sup]]).any(1)
        node, sup = node[fine], sup[fine]
        usable = np.bincount(node, minlength=len(nodes))
        alive[nodes] = usable > 0
        rank = np.arange(len(node)) - (np.cumsum(usable) - usable)[node]
        count = np.maximum(usable, 1)
        kernels = np.zeros((len(nodes), count.max(), kids.shape[1]))
        kernels[node[:, None], rank[:, None], sup] = np.sqrt(p)[node[:, None], sup] * y0[fine]
        np.copyto(kernels, kernels[:, :1], where=(np.arange(count.max()) >= count[:, None])[..., None])
        packed[key] = kernels, np.zeros(kernels.shape[:2])
        menu_sizes[nodes] = count
    if not alive[tree.root]:
        raise NoMartingaleMeasure(f"no martingale kernel at node {_first_dead(tree, ~alive)}")
    return ScenarioModel.of_packed(tree, packed, menu_sizes)


def _stacks(steps: list, sizes: list[int]):
    """The level groups of ``steps`` (of :func:`_level_steps`) that share an
    arity and a support size of ``sizes``, stacked: per stack, that size,
    the indices of its groups in ``steps``, their reference kernels and
    asset moves as one array each, and where each group's nodes start in
    them, with the stack's node count last."""
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, ((_, kids, *_), size) in enumerate(zip(steps, sizes)):
        stacks.setdefault((kids.shape[1], size), []).append(i)
    for (_, size), members in stacks.items():
        yield (size, members, np.concatenate([steps[i][2] for i in members]),
               np.concatenate([steps[i][3] for i in members]),
               list(itertools.accumulate((len(steps[i][0]) for i in members), initial=0)))


def _kernel_support_size(tree: FiltrationTree, nodes: np.ndarray, k: int, n_assets: int,
                         settings: Settings, capped: bool = False) -> int:
    """The most children a kernel of a level group of arity ``k`` needs in its
    support: assets + 1 for a vertex of the martingale kernels, all ``k``
    under a second-moment cap.  Raises :class:`EnumerationOverflow` when the
    supports of 1 to that many children exceed ``max_enum``."""
    size = k if capped else min(k, n_assets + 1)
    _cap_supports(k, size, settings,
                  f"kernel supports per node at time {tree.times[nodes[0]]} (arity {k})")
    return size


def _first_dead(tree: FiltrationTree, dead: np.ndarray) -> int:
    """The first node in preorder that is ``dead`` while no child of it is:
    the node whose own kernels are empty."""
    return next(v for v in tree.preorder if dead[v] and not dead[list(tree.children[v])].any())


# -- good-deal bounds ---------------------------------------------------------

def good_deal_bounds(tree: FiltrationTree, assets: Sequence[AssetProcess],
                     caps: GoodDealCaps, x: Claim,
                     settings: Settings = DEFAULT) -> tuple[float, float]:
    """Extremes of E_Q x over the martingale measures whose kernel at each
    node n lies in K_n = {q >= 0, sum q = 1, q . (S(c) - S(n)) = 0,
    sum q_c^2/p_c <= cap(n)^2}.  A cap of 1 leaves only the reference
    kernel (Cauchy-Schwarz equality).

    The family is stable under pasting, so a bound is the induction
    U(n) = max over q in K_n of q . U(children).  Without a finite cap the
    maximum is over the vertices of K_n, the induction of :func:`mme_bounds`.
    With caps each level group is one :func:`tcpp.scenario._kernel_max`
    over its supports for both sides.  The slice systems of that search
    depend on the reference kernels and the asset moves alone, so the level
    groups of one arity and support size are solved as one stack, once per
    support batch, before the induction, and each group's search reads its
    own rows; a stack whose systems hold more than ``scenario._CELLS``
    numbers is not kept, and each of its groups solves its own batches in
    its search, so memory stays that of one batch.  An empty K_n gives
    -inf, which the parent avoids; an empty root raises
    :class:`NoMartingaleMeasure`, or :class:`EmptyGoodDealSet` if only the
    caps empty it, naming the first node whose own constraints are empty."""
    cap, settings = caps.on(tree), pinned(settings)
    validate_stopping_time(tree, x.at)
    require_finite(x, "claim value")
    if not np.isfinite(cap).any():
        return _uncapped_bounds(_vertex_table(tree, assets, settings), x)
    steps = _level_steps(tree, _spot(tree, assets))
    sizes = [_kernel_support_size(tree, nodes, kids.shape[1], len(assets), settings,
                                  bool(np.isfinite(cap[nodes]).any()))
             for nodes, kids, *_ in steps]
    solved = [None] * len(steps)      # per level group, its rows of its stack's batches
    for size, members, p, drift, starts in _stacks(steps, sizes):
        if starts[-1] * _slice_cells(drift.shape[1], size, len(assets) + 1) <= _CELLS:
            stack = list(_slice_batches(np.sqrt(p), drift, size, starts[-1]))
            for i, lo, hi in zip(members, starts, starts[1:]):
                solved[i] = [sl.rows(lo, hi) for sl in stack]
    values = np.empty((2, tree.n_nodes))      # the lower side negated, the upper side
    values[:, list(tree.leaves)] = np.outer([-1.0, 1.0], lift_to_leaves(tree, x))
    for (nodes, kids, p, drift), size, batches in zip(steps, sizes, solved):
        values[:, nodes] = _kernel_max(p, drift, cap[nodes], values[:, kids], size, settings,
                                       batches)
    dead = np.isinf(values).any(0)
    if dead[tree.root]:
        node = _first_dead(tree, dead)
        _vertex_table(tree, assets, settings, steps)      # raises when M is empty too
        raise EmptyGoodDealSet(f"caps exclude every martingale kernel at node {node}")
    return -float(values[0, tree.root]), float(values[1, tree.root])


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
    settings = pinned(settings)
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


def _level_steps(tree: FiltrationTree, spot: np.ndarray
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per level group of :meth:`FiltrationTree.levels` above the leaves,
    deepest first: its nodes, their children (a row per node), the reference
    kernels and the moves of the assets (``spot``, of :func:`_spot`)."""
    mass = tree._p_mass
    return [(nodes, kids, mass[kids] / mass[nodes, None], spot[kids] - spot[nodes][:, None, :])
            for nodes, kids in tree.levels(tree.leaves).values()]


def _spot(tree: FiltrationTree, assets: Sequence[AssetProcess]) -> np.ndarray:
    """Asset values as a (node, asset) array, each checked to cover the tree."""
    spot = np.empty((tree.n_nodes, len(assets)))
    for j, asset in enumerate(assets):
        spot[:, j] = asset.on(tree)
    return spot


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
    the rank of the row differences.  A 1 x 1 kernel's mixtures are pure
    strategies, which need no solve: they give the best column's least row,
    max over c of min over r, and the best row's largest column (plus 0.0,
    which maps -0.0 to 0.0 as the sum of an evaluation does); a NaN entry
    propagates into both.  :func:`_equalizer` solves the larger kernels.
    """
    g, m, k = pay.shape
    step = max(1, _BATCH // g)
    lower = pay.min(1).max(1) + 0.0
    upper = pay.max(2).min(1) + 0.0
    for s in range(2, size + 1):
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
    an optimal pair makes nonsingular whatever the game's value.  The
    blocks are 2 x 2 and up: :func:`_game_bounds` reads the pure strategies
    off the matrix.  Returns the mixtures, clipped into the simplex, and a
    mask of those that are nonsingular and nonnegative to the feasibility
    tolerance."""
    s = sub.shape[-1]
    a = np.concatenate([np.ones(sub.shape[:-2] + (1, s)),
                        sub[..., 1:, :] - sub[..., :1, :]], axis=-2)
    # |det| against the product of row norms (Hadamard's bound) is scale-free;
    # a NaN entry masks its block here and fails the caller's gap check
    with np.errstate(invalid="ignore"):
        ok = np.abs(np.linalg.det(a)) > RANK_TOL * np.prod(
            np.linalg.norm(a, axis=-1), axis=-1)
    a[~ok] = np.eye(s)
    rhs = np.zeros(a.shape[:-1] + (1,))
    rhs[..., 0, 0] = 1.0
    mix = np.linalg.solve(a, rhs)[..., 0]
    ok &= np.all(mix >= -settings.feasibility_tol, axis=-1)
    mix = np.where(ok[..., None], np.maximum(mix, 0.0), 1.0)
    return mix / mix.sum(axis=-1, keepdims=True), ok
