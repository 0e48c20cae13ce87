"""Independent numerical oracles used to freeze expected values in tests."""
from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from tcpp.errors import (EmptyGoodDealSet, ForeignNode, InconsistentVerdicts,
                         MarketFileError, NoMartingaleMeasure, NumericalBreakdown,
                         TcppError)
from tcpp.lp import EQ, GE, LE, LinearProgram, solve
from tcpp.market import (AssetProcess, ConstraintSet, GoodDealCaps, QuotedOption,
                         _equalizer, _first_dead, _kernel_support_size, _level_steps, _spot,
                         _uncapped_bounds, _vertex_table)
from tcpp.marketfile import MarketData
from tcpp.nfl import (FreeLunchCertificate, NflReport, ZeroCostStrategy, _draw_zero_cost,
                      find_static_free_lunch, find_zero_penalty_equivalent_measure)
from tcpp.pricing import (SublinearReport, _columns, backward_pass, check_sublinear,
                          enumerate_stop_sets, price, random_stopping_time)
from tcpp.report import CheckReport
from tcpp.scenario import (_BATCH, MenuEntry, ScenarioModel, _cap_supports, _check_selection,
                           _kernel_max, check_nondegenerate, cumulative_penalties,
                           minimal_penalty, subtree_duals)
from tcpp.settings import DEFAULT, Settings, pinned
from tcpp.tree import (Claim, FiltrationTree, Measure, StoppingTime, lift,
                       lift_to_leaves, precedes, require_finite,
                       stacked_conditional_expectation, validate_stopping_time)


def trinomial_mme_family(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Martingale kernels of the asset (2, 1, 0.5) on the uniform trinomial:
    q = (theta/2, 1 - 1.5 theta, theta) for theta in [0, 2/3]."""
    return theta / 2.0, 1.0 - 1.5 * theta, theta


def good_deal_interval_oracle(cap: float, n_grid: int = 10_000) -> tuple[float, float]:
    """Extremes of q_u over the one-parameter family under the second-moment
    cap, from an n_grid scan whose boundary crossings are pinned by bisection
    on the constraint itself (independent of any cutting plane)."""

    def violation(theta: float) -> float:
        qu, qm, qd = trinomial_mme_family(np.asarray(theta))
        return float(3.0 * (qu ** 2 + qm ** 2 + qd ** 2) - cap ** 2)

    thetas = np.linspace(0.0, 2.0 / 3.0, n_grid)
    feas = np.array([violation(t) <= 0.0 for t in thetas])
    if not feas.any():
        raise ValueError("cap excludes the whole family")

    def refine(lo: float, hi: float) -> float:
        # violation(lo) and violation(hi) straddle zero
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if violation(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        return hi

    idx = np.flatnonzero(feas)
    t_lo = thetas[idx[0]]
    t_hi = thetas[idx[-1]]
    if idx[0] > 0:
        t_lo = refine(thetas[idx[0] - 1], t_lo)
    if idx[-1] < n_grid - 1:
        # same bisection with the roles swapped around the upper crossing
        lo, hi = thetas[idx[-1] + 1], t_hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if violation(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        t_hi = hi
    return t_lo / 2.0, t_hi / 2.0


def binomial_constrained_oracle(tree, asset, h_set, leaf_values: dict,
                                n_grid: int = 2001) -> float:
    """Kernel-grid brute force of the hedge-penalized value recursion on a
    binomial tree.  The per-node objective is piecewise linear in the up
    weight, so the grid is augmented with the penalty kink (zero drift) and
    the interval endpoints, which the maximum must visit."""

    def node_value(node) -> float:
        if not tree.children[node]:
            return leaf_values[node]
        up, down = tree.children[node]
        vu, vd = node_value(up), node_value(down)
        su, sd, sn = asset.values[up], asset.values[down], asset.values[node]
        qs = list(np.linspace(0.0, 1.0, n_grid))
        if abs(su - sd) > 1e-15:
            kink = (sn - sd) / (su - sd)
            if 0.0 <= kink <= 1.0:
                qs.append(kink)
        best = -np.inf
        for q in qs:
            drift = q * su + (1.0 - q) * sd - sn
            pen = max(hv[0] * drift for hv in h_set.vertices)
            best = max(best, q * vu + (1.0 - q) * vd - pen)
        return best

    return node_value(tree.root)


# -- the tree's index built node by node ----------------------------------------

def tree_by_node(times, parents, leaf_weights) -> dict:
    """The index attributes of ``FiltrationTree(times, parents, leaf_weights)``
    as its constructor built them node by node, raising the same errors:
    children by appending, preorder by a stack walk, entries and leaf counts
    by one pass over the preorder, exits from the last child, level groups
    (deepest first) by a dict over the nodes, and P's node masses child by
    child."""
    n = len(times)
    if len(parents) != n:
        raise TcppError("times and parents must have equal length")
    times, parents = tuple(map(int, times)), tuple(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    for node, par in enumerate(parents):
        if par is not None:
            if not 0 <= par < n:
                raise ForeignNode(f"node {node} has parent {par} outside the tree")
            children[par].append(node)
    if parents.count(None) != 1:
        raise TcppError(f"expected exactly one root, found {parents.count(None)}")
    root = parents.index(None)
    if times[root] != 0:
        raise TcppError("root must sit at time 0")
    horizon = max(times)
    if horizon < 1:
        raise TcppError("horizon must be at least 1")
    for node, par in enumerate(parents):
        if par is not None and times[node] != times[par] + 1:
            raise TcppError(f"node {node} is not one period after its parent")
        if not children[node] and times[node] != horizon:
            raise TcppError(f"leaf {node} is not at the horizon")
    leaves = [v for v in range(n) if not children[v]]
    missing = [v for v in leaves if v not in leaf_weights]
    if missing:
        raise TcppError(f"missing leaf weights for {missing}")
    w = np.array([float(leaf_weights[v]) for v in leaves])
    if np.any(w <= 0):
        raise TcppError("every leaf weight must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise TcppError(f"leaf weights sum to {w.sum()!r}, expected 1")
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += children[v][::-1]
    enter, before, count = [0] * n, [0] * (n + 1), 0
    for i, v in enumerate(order):
        enter[v], before[i] = i, count
        count += not children[v]
    before[n] = count
    exit_ = [0] * n
    for v in reversed(order):
        exit_[v] = exit_[children[v][-1]] if children[v] else enter[v] + 1
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        if children[v]:
            groups.setdefault((-times[v], len(children[v])), []).append(v)
    levels = [((-t, k), (nodes, [tuple(children[v]) for v in nodes]))
              for (t, k), nodes in sorted(groups.items())]
    mass = [0.0] * n
    for v, x in zip(leaves, w.tolist()):
        mass[v] = x
    for _, (nodes, kids) in levels:
        for v, row in zip(nodes, kids):
            acc = 0.0
            for c in row:
                acc = acc + mass[c]
            mass[v] = acc
    return {"times": times, "parents": parents, "root": root, "horizon": horizon,
            "children": tuple(map(tuple, children)), "leaves": tuple(leaves),
            "preorder": tuple(order), "enter": enter, "exit": exit_,
            "_leaves_before": before, "_pre_leaves": tuple(v for v in order if not children[v]),
            "levels": levels, "_p_mass": mass}


# -- tree walks as first written: path scans and recursion ---------------------
# Reference implementations of what ``tcpp.tree`` now answers from its
# preorder interval index; tests require the two to agree exactly.

def is_ancestor_walk(tree, a: int, b: int) -> bool:
    while b is not None and tree.times[b] >= tree.times[a]:
        if b == a:
            return True
        b = tree.parents[b]
    return False


def validate_stopping_time_scan(tree, tau) -> None:
    for v in tau.cut:
        if not 0 <= v < tree.n_nodes:
            raise ForeignNode(f"stopping time references node {v} outside the tree")
    for leaf in tree.leaves:
        hits = [v for v in tree.path(leaf) if v in tau.cut]
        if len(hits) != 1:
            raise TcppError(
                f"path to leaf {leaf} meets the cut {len(hits)} times, expected 1")


def precedes_scan(tree, nu, tau) -> bool:
    return all(any(is_ancestor_walk(tree, a, b) for a in nu.cut) for b in tau.cut)


def lift_scan(tree, z, tau):
    vals = {}
    for b in tau.cut:
        src = [a for a in z.at.cut if is_ancestor_walk(tree, a, b)]
        vals[b] = z.values[src[0]]
    return Claim(tau, vals)


def conditional_expectation_scan(tree, q, x, sigma):
    vals = {}
    for a in sigma.cut:
        below = [b for b in x.at.cut if is_ancestor_walk(tree, a, b)]
        mass_a = q.mass(tree, a)
        if mass_a <= 0.0:
            vals[a] = math.nan
        else:
            vals[a] = sum(x.values[b] * q.mass(tree, b) for b in below) / mass_a
    return Claim(sigma, vals)


def owners(tree, nu, nodes) -> dict[int, int | None]:
    """Ancestor-or-self of each node among ``nu``, or None where there is
    none; where ``nu`` nests, the outermost one: ``FiltrationTree.owners``
    before owner lookups became one ``searchsorted`` over arrays."""
    starts: list[int] = []
    tops: list[int] = []
    end = 0
    for a in sorted(nu, key=tree.enter.__getitem__):
        if tree.enter[a] >= end:
            starts.append(tree.enter[a])
            tops.append(a)
            end = tree.exit[a]
    out: dict[int, int | None] = {}
    for b in nodes:
        i = bisect_right(starts, tree.enter[b]) - 1
        out[b] = tops[i] if i >= 0 and tree.enter[b] < tree.exit[tops[i]] else None
    return out


def node_masses_walk(tree, r) -> dict[int, float]:
    """Mass of every node as ``minimal_penalty`` summed it before
    ``FiltrationTree.sum_up``: leaf masses, then each internal node the sum
    of its children, in reversed preorder."""
    mass = dict(zip(tree.leaves, r.leaf_masses(tree).tolist()))
    for v in reversed(tree.preorder):
        if tree.children[v]:
            mass[v] = sum(mass[c] for c in tree.children[v])
    return mass


def forward_mass(tree, top: int, cut, kernel) -> dict[int, float]:
    """Mass that the one-step ``kernel(v)`` laws carry from ``top`` to
    each cut node below it: the product of weights along the path, walked
    node by node; ``FiltrationTree.forward_mass`` before
    ``FiltrationTree.product_down`` took a level group at a time."""
    mass = {top: 1.0}
    out: dict[int, float] = {}
    for v in reversed(tree.between(top, cut)):
        m = mass.pop(v)
        if v in cut:
            out[v] = m
        else:
            for w, c in zip(kernel(v), tree.children[v]):
                mass[c] = m * w
    return out


def conditional_expectation_walk(tree, q, x, sigma):
    """E_Q(X | F_sigma) from dicts, in the order of sums of the array
    version: the masses and the mass-weighted values summed up from below,
    each node the left-to-right sum of its children from 0.0, then divided
    at sigma's atoms, NaN where the mass is not positive."""
    def up(values: dict) -> dict:
        for v in reversed(tree.preorder):
            kids = tree.children[v]
            if v not in values and kids and all(c in values for c in kids):
                acc = 0.0
                for c in kids:
                    acc = acc + values[c]
                values[v] = acc
        return values

    mass = up({v: q.density[v] * tree.leaf_weights[v] for v in tree.leaves})
    num = up({b: x.values[b] * mass[b] for b in x.at.cut})
    return Claim(sigma, {a: num[a] / mass[a] if mass[a] > 0.0 else math.nan
                         for a in sigma.cut})


def essential_supremum_scan(tree, claims):
    """Atomwise maximum of claims sharing one stopping time, atom by atom."""
    at = claims[0].at
    return Claim(at, {v: max(c.values[v] for c in claims) for v in at.cut})


def enumerate_stop_sets_recursive(tree, node: int, tau) -> list[tuple[int, ...]]:
    def rec(v):
        if v in tau.cut:
            return [(v,)]
        out = [(v,)]
        combos = [()]
        for c in tree.children[v]:
            sub = rec(c)
            combos = [base + s for base in combos for s in sub]
        out.extend(combos)
        return out

    return rec(node)


def subtree_duals_recursive(model, node: int, tau) -> list[tuple[dict, float]]:
    tree = model.tree

    def rec(v):
        if v in tau.cut:
            return [({v: 1.0}, 0.0)]
        out = []
        child_lists = [rec(c) for c in tree.children[v]]
        for entry in model.menus[v]:
            combos = [({}, entry.penalty)]
            for i, c in enumerate(tree.children[v]):
                w = entry.kernel[i]
                nxt = []
                for base_m, base_p in combos:
                    for m, p in child_lists[i]:
                        merged = dict(base_m)
                        for b, q in m.items():
                            merged[b] = merged.get(b, 0.0) + w * q
                        nxt.append((merged, base_p + w * p))
                combos = nxt
            out.extend(combos)
        return out

    return rec(node)


def random_stopping_time_recursive(tree, rng, lo, hi, stop_prob: float):
    cut = []

    def walk(v, started):
        inside = started or v in lo.cut
        if inside and (v in hi.cut or rng.random() < stop_prob):
            cut.append(v)
            return
        for c in tree.children[v]:
            walk(c, inside)

    walk(tree.root, False)
    return StoppingTime.of(cut)


def cocycle_deterministic_scan(model, penalty, tol: float = 1e-12) -> bool:
    """The deterministic-time identity of ``check_cocycle``, pair by pair
    with forward masses along every path."""
    tree = model.tree
    choice = penalty.selection.as_dict()
    vals = penalty.values

    def mass_on(node, cut):
        out = {}

        def walk(v, m):
            if v in cut:
                out[v] = out.get(v, 0.0) + m
                return
            entry = model.menus[v][choice[v]]
            for i, c in enumerate(tree.children[v]):
                walk(c, m * entry.kernel[i])

        walk(node, 1.0)
        return out

    ok = True
    for t0 in range(tree.horizon):
        for t1 in range(t0, tree.horizon):
            cut1 = StoppingTime.at_time(tree, t1)
            leg = cumulative_penalties(model, penalty.selection, cut1)
            for a in tree.nodes_at(t0):
                rhs = leg[a] + sum(m * vals[b] for b, m in mass_on(a, cut1.cut).items())
                if abs(vals[a] - rhs) > max(tol, 1e-9):
                    ok = False
    return ok


# -- global formulations of no free lunch and of the minimal penalty ------------
# The first implementations: every selection enumerated into one dense LP.
# ``tcpp.nfl`` and ``tcpp.scenario.minimal_penalty`` now answer the same
# questions node by node; tests require the two to agree.

def root_duals(model, settings=DEFAULT) -> list[tuple[np.ndarray, float]]:
    """Leaf-mass vector and aggregated root penalty of every selection."""
    tree = model.tree
    horizon = StoppingTime.at_horizon(tree)
    out = []
    for masses, pen in subtree_duals(model, tree.root, horizon, settings):
        vec = np.zeros(len(tree.leaves))
        for leaf, m in masses.items():
            vec[tree.leaf_index[leaf]] = m
        out.append((vec, pen))
    return out


def find_static_free_lunch_global(model, settings=DEFAULT) -> Claim | None:
    """Search the closed cone of nonpositively priced claims for X >= 0, X != 0.

    Two LPs cover the cone: first the unit-scale program min over the claim
    simplex of the worst dual value, then (because the cone is generated by
    arbitrarily small multiples, under which positive penalties vanish) the
    zero-penalty game whose optimizer certifies a small-scale free lunch.
    """
    tree = model.tree
    duals = root_duals(model, settings)
    nl = len(tree.leaves)
    tol = settings.feasibility_tol

    # scale-1 program: min t, t >= E_i(X) - alpha_i, X in the simplex
    lp = LinearProgram(
        objective=[0.0] * nl + [1.0],
        constraints=[(list(-vec) + [1.0], GE, -pen) for vec, pen in duals]
        + [([1.0] * nl + [0.0], EQ, 1.0)],
        lower=[0.0] * nl + [-np.inf],
        sense="min",
    )
    sol = solve(lp, settings)
    if sol.status == "optimal" and sol.value <= tol:
        x = sol.point[:nl]
        return Claim(StoppingTime.at_horizon(tree),
                     {leaf: float(x[tree.leaf_index[leaf]]) for leaf in tree.leaves})

    # small-scale program over the zero-penalty selections only; without
    # any, every claim is a small-scale free lunch (the program is unbounded)
    zero_vecs = [vec for vec, pen in duals if pen <= tol]
    lp2 = LinearProgram(
        objective=[0.0] * nl + [1.0],
        constraints=[(list(-vec) + [1.0], GE, 0.0) for vec in zero_vecs]
        + [([1.0] * nl + [0.0], EQ, 1.0)],
        lower=[0.0] * nl + [-np.inf],
        sense="min",
    )
    sol2 = solve(lp2, settings) if zero_vecs else None
    if sol2 is None or (sol2.status == "optimal" and sol2.value <= tol):
        x = np.full(nl, 1.0 / nl) if sol2 is None else sol2.point[:nl]
        # scale down until positive-penalty selections price it at <= 0
        scale = 1.0
        for vec, pen in duals:
            ev = float(vec @ x)
            if pen > tol and ev > tol:
                scale = min(scale, pen / (2.0 * ev))
        claim = Claim(StoppingTime.at_horizon(tree),
                      {leaf: float(scale * x[tree.leaf_index[leaf]])
                       for leaf in tree.leaves})
        root_price = price(model, claim, StoppingTime.at_root(tree)).values[tree.root]
        if root_price <= tol:
            return claim
    return None


def find_zero_penalty_equivalent_measure_global(model, settings=DEFAULT) -> Measure | None:
    """Best uniformly charged mixture of the zero-penalty selections: the
    max-min leaf mass over mixtures, accepted above ``equivalence_floor``."""
    tree = model.tree
    duals = root_duals(model, settings)
    zero_vecs = [vec for vec, pen in duals if pen <= settings.feasibility_tol]
    if not zero_vecs:
        return None
    k = len(zero_vecs)
    nl = len(tree.leaves)
    lp = LinearProgram(
        objective=[0.0] * k + [1.0],
        constraints=[([float(v[i]) for v in zero_vecs] + [-1.0], GE, 0.0)
                     for i in range(nl)]
        + [([1.0] * k + [0.0], EQ, 1.0)],
        sense="max",
    )
    sol = solve(lp, settings)
    if sol.status != "optimal" or sol.value <= settings.equivalence_floor:
        return None
    lam = sol.point[:k]
    masses = np.zeros(nl)
    for w, vec in zip(lam, zero_vecs):
        masses += w * vec
    return Measure.from_leaf_masses(tree, masses)


def minimal_penalty_global(model, r, sigma, tau, settings=DEFAULT) -> Claim:
    """Per sigma atom, the least penalty of a mixture of the selections below
    it whose law on the tau atoms is R's conditional law."""
    tree = model.tree
    vals: dict[int, float] = {}
    for a in sigma.cut:
        mass_a = r.mass(tree, a)
        if mass_a <= 0.0:
            vals[a] = math.nan
            continue
        duals = subtree_duals(model, a, tau, settings)
        atoms = sorted({b for m, _ in duals for b in m})
        target = np.array([r.mass(tree, b) / mass_a for b in atoms])
        lp = LinearProgram(
            objective=[p for _, p in duals],
            constraints=[
                ([m.get(b, 0.0) for m, _ in duals], EQ, target[i])
                for i, b in enumerate(atoms)
            ] + [([1.0] * len(duals), EQ, 1.0)],
            sense="min",
        )
        sol = solve(lp, settings)
        vals[a] = math.inf if sol.status == "infeasible" else max(0.0, sol.value)
    return Claim(sigma, vals)


def dead_leaves_path_walk(model) -> list[tuple[int, int, int]]:
    """(leaf, a, b) for each leaf whose path has an edge a -> b that every
    menu entry at a kills, with the first such edge from the root."""
    tree = model.tree
    dead = []
    for leaf in tree.leaves:
        path = tree.path(leaf)
        for a, b in zip(path, path[1:]):
            i = tree.children[a].index(b)
            if max(e.kernel[i] for e in model.menus[a]) <= 0.0:
                dead.append((leaf, a, b))
                break
    return dead


# -- menus read entry by entry -------------------------------------------------
# The zero-penalty mixtures, the uncharged-edge walk and the selection check
# as they read the ``MenuEntry`` view node by node; ``tcpp.scenario`` now
# reads the packed level groups into node-indexed arrays.

def uniform_mixture(entries: Sequence[MenuEntry]) -> tuple[float, ...]:
    """Kernel of the equal-weight mixture of the entries' kernels, each
    column added left to right (the builtin ``sum`` of floats is compensated
    from Python 3.12 on)."""
    out = []
    for col in zip(*(e.kernel for e in entries)):
        total = 0.0
        for x in col:
            total += x
        out.append(total / len(entries))
    return tuple(out)


def uncharged_edges_walk(model, family, floor: float = 0.0) -> list[tuple[int, int]]:
    """Edges (v, c), in preorder of v, to which the uniform mixture of the
    entries ``family[v]`` gives weight at most ``floor``; every edge of a
    node whose family is empty is listed.

    With ``floor`` 0, a leaf is charged by some selection of family entries
    exactly when no edge on its path is listed, so the union of selection
    supports is decided edge by edge without enumeration.
    """
    tree = model.tree
    out = []
    for v in tree.preorder:
        kids = tree.children[v]
        if not kids:
            continue
        weights = uniform_mixture(family[v]) if family[v] else (0.0,) * len(kids)
        out.extend((v, c) for w, c in zip(weights, kids) if w <= floor)
    return out


def check_selection_dict(model, sel) -> dict[int, int]:
    choice = sel.as_dict()
    for node in model.tree.internal_nodes():
        if node not in choice:
            raise TcppError(f"selection misses internal node {node}")
        if not 0 <= choice[node] < len(model.menus[node]):
            raise TcppError(f"selection index {choice[node]} out of range at node {node}")
    return choice


# -- the minimal penalty with one LP per node ------------------------------------
# ``tcpp.scenario.minimal_penalty`` as first written node by node: the walk
# from each atom down to tau, with the one-step conjugate solved as an LP over
# the node's menu.  The library now takes a level group at a time through
# the bounds' support search.

def _one_step_conjugate(entries: Sequence[MenuEntry], kernel: Sequence[float],
                        settings: Settings) -> float:
    """Least mixture penalty of menu entries whose kernels mix to ``kernel``:
    the conjugate of the one-step map max_j (q_j . x - p_j), +inf outside
    the convex hull of the menu kernels."""
    if len(kernel) == 1:
        # one child: every kernel is (1,), so the LP's optimum is the
        # cheapest entry on its own
        return min(e.penalty for e in entries)
    lp = LinearProgram(
        objective=[e.penalty for e in entries],
        constraints=[([e.kernel[i] for e in entries], EQ, q) for i, q in enumerate(kernel)]
        + [([1.0] * len(entries), EQ, 1.0)],
        sense="min",
    )
    sol = solve(lp, settings)
    return math.inf if sol.status == "infeasible" else sol.value


def minimal_penalty_node_lp(model: ScenarioModel, r: Measure, sigma: StoppingTime,
                            tau: StoppingTime, settings: Settings = DEFAULT) -> Claim:
    """Convex conjugate of the pricing map at R, atom by atom.

    Menus chosen independently per node make penalties add up along the
    tree (the cocycle), so the conjugate between sigma and tau is E_R of the
    one-step conjugates at R's conditional kernels on the nodes from sigma
    down to tau: one LP over the node's menu per node R charges.  Values
    are in [0, +inf]; +inf marks atoms below which one of R's conditional
    kernels falls outside the convex hull of the menu kernels, and NaN
    marks atoms R does not charge (the conjugate is an R-a.s. object).
    """
    tree = model.tree
    if not precedes(tree, sigma, tau):
        raise TcppError("minimal_penalty requires sigma <= tau")
    mass = r.node_masses(tree).tolist()
    vals: dict[int, float] = {}
    for a in sigma.cut:
        if mass[a] <= 0.0:
            vals[a] = math.nan
            continue
        total = 0.0
        for v in tree.between(a, tau.cut):
            if v in tau.cut or mass[v] <= 0.0:
                continue
            kernel = [mass[c] / mass[v] for c in tree.children[v]]
            total += mass[v] * _one_step_conjugate(model.menus[v], kernel, settings)
            if total == math.inf:
                break
        vals[a] = max(0.0, total / mass[a])
    return Claim(sigma, vals)


def minimal_penalty_per_group(model: ScenarioModel, r: Measure, sigma: StoppingTime,
                              tau: StoppingTime, settings: Settings = DEFAULT) -> Claim:
    """``tcpp.scenario.minimal_penalty`` with one support search per level
    group, as before the groups of one menu width and arity were stacked
    into one search."""
    tree, settings = model.tree, pinned(settings)
    validate_stopping_time(tree, sigma)
    validate_stopping_time(tree, tau)
    if not precedes(tree, sigma, tau):
        raise TcppError("minimal_penalty requires sigma <= tau")
    atoms = sigma.index
    owner = tree.owner_index(atoms, np.arange(tree.n_nodes))
    mass = r.node_masses(tree)
    conj = np.zeros(tree.n_nodes)
    for nodes, kids, kernels, penalties in model.steps(tau.cut):
        _, w, k = kernels.shape
        if k == 1:
            conj[nodes] = mass[nodes] * penalties.min(axis=1)
            continue
        keep = owner[nodes] >= 0
        if not keep.any():
            continue
        _cap_supports(w, min(w, k), settings, f"menu supports per node at time "
                      f"{tree.times[nodes[0]]} (arity {k}, {w} menu entries)")
        keep &= mass[nodes] > 0.0
        nodes, m = nodes[keep], mass[nodes[keep]]
        if len(nodes):
            drift = kernels[keep] - (mass[kids[keep]] / m[:, None])[:, None, :]
            best = _kernel_max(np.ones(drift.shape[:2]), drift, np.full(len(m), np.inf),
                               -penalties[None, keep], min(w, k), settings)[0]
            conj[nodes] = m * -best
    inside = owner >= 0
    total = np.bincount(owner[inside], conj[inside], len(atoms))
    charged = mass[atoms] > 0.0
    out = np.full(len(atoms), np.nan)
    out[charged] = np.maximum(0.0, total[charged] / mass[atoms[charged]])
    return Claim(sigma, out)


# -- constrained pricing, one LP per node -----------------------------------------
# The per-node LP that ``tcpp.market.constrained_price`` solved before it
# batched each level as matrix games; kept as the reference it is compared with.

def constrained_price_lp(tree, assets, h_set, x, settings=DEFAULT) -> Claim:
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


def american_enumerated(model, payoff, nu, tau, settings=DEFAULT):
    """Best-exercise value as the largest price over every enumerated stop
    set below each atom of nu, with the first stop set attaining it."""
    tree = model.tree
    if not precedes(tree, nu, tau):
        raise TcppError("american_price requires nu <= tau")
    order = [v for a in nu.cut for v in tree.between(a, tau.cut)]
    missing = sorted({v for v in order if v not in payoff})
    if missing:
        raise TcppError(f"payoff process undefined on nodes {missing}")

    vals: dict[int, float] = {}
    best_sets: dict[int, tuple[int, ...]] = {}
    column = np.full((tree.n_nodes, 1), np.nan)     # the payoff, read on each stop set
    column[list(payoff), 0] = list(payoff.values())
    for a in nu.cut:
        rest = tuple(nu.cut - {a})      # completes each stop set to a cut
        best = None
        for stop in enumerate_stop_sets(tree, a, tau, settings):
            v = backward_pass(model, StoppingTime.of(stop + rest), column)[a, 0]
            if best is None or v > best + 0.0:
                best, best_sets[a] = float(v), stop
        vals[a] = best
    return Claim(nu, vals), best_sets


# -- martingale, calibrated and good-deal bounds and calibration over leaf masses --
# The dense leaf-mass LPs behind ``tcpp.market.mme_bounds``,
# ``calibrated_bounds`` and ``calibration_feasible``, and the cutting-plane
# loop behind ``good_deal_bounds``, before the bounds became node-local
# inductions and calibration's verdict a column generation over the
# vertex kernels; kept as the references they are compared with.  The cut
# loop's two settings are parameters here.

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


def _quote_rows(tree: FiltrationTree, quotes: Sequence[QuotedOption]
                ) -> list[tuple[list[float], str, float]]:
    rows = []
    for q in quotes:
        coef = list(lift_to_leaves(tree, q.payoff))
        rows.append((coef, GE, q.bid))
        rows.append((coef, LE, q.ask))
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


def calibration_feasible_lp(tree: FiltrationTree, assets: Sequence[AssetProcess],
                            quotes: Sequence[QuotedOption],
                            settings: Settings = DEFAULT) -> Measure | None:
    """The martingale measure pricing every quote inside its band with the
    largest least density dQ/dP, from one LP over the leaf masses; None when
    that density is at most ``equivalence_floor``."""
    rows = _martingale_rows(tree, assets)
    try:
        sol = _equivalence_margin(tree, rows, _quote_rows(tree, quotes), settings)
    except NoMartingaleMeasure:
        return None
    if sol.value <= settings.equivalence_floor:
        return None
    return Measure.from_leaf_masses(tree, sol.point[:len(tree.leaves)])


def calibrated_bounds_lp(tree: FiltrationTree, assets: Sequence[AssetProcess],
                         quotes: Sequence[QuotedOption], x: Claim,
                         settings: Settings = DEFAULT) -> tuple[float, float]:
    """Quote-penalized price bounds: extremes of E_Q(X) -/+ beta(Q) where
    beta is the worst quote-band violation of Q, each from one LP over the
    leaf masses and the bound."""
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


def mme_bounds_lp(tree, assets, x, settings=DEFAULT) -> tuple[float, float, float]:
    """Sub- and surreplication prices: extreme expectations over the closed
    martingale polytope, with the equivalence margin (the largest minimum
    leaf density) as a side check."""
    validate_stopping_time(tree, x.at)
    rows = _martingale_rows(tree, assets)
    coef = lift_to_leaves(tree, x)
    out = []
    for sense in ("min", "max"):
        sol = solve(LinearProgram(list(coef), rows, sense=sense), settings)
        if sol.status != "optimal":
            raise NoMartingaleMeasure(f"martingale polytope is empty ({sol.status})")
        out.append(sol.value)
    margin = _equivalence_margin(tree, rows, [], settings).value
    return out[0], out[1], margin


def kernel_bounds_per_group(tree, assets, x, settings=DEFAULT) -> tuple[float, float, bool]:
    """The martingale bounds of ``x`` and whether an equivalent martingale
    measure exists, as the induction without caps computed them before the
    vertex table: one :func:`tcpp.scenario._kernel_max` per level group,
    which solves that group's supports again, with the two sides and one
    unit objective per child (the edge test) as its objectives, a child
    without a kernel marked -inf."""
    validate_stopping_time(tree, x.at)
    require_finite(x, "claim value")
    steps = _level_steps(tree, _spot(tree, assets))
    sizes = [_kernel_support_size(tree, nodes, kids.shape[1], len(assets), settings)
             for nodes, kids, *_ in steps]
    values = np.empty((2, tree.n_nodes))      # the lower side negated, the upper side
    values[:, list(tree.leaves)] = np.outer([-1.0, 1.0], lift_to_leaves(tree, x))
    charged = True
    for (nodes, kids, p, drift), size in zip(steps, sizes):
        v = values[:, kids]
        edges = np.where(np.isinf(v).any(0), -np.inf, np.eye(kids.shape[1])[:, None, :])
        out = _kernel_max(p, drift, np.full(len(nodes), np.inf), np.concatenate([v, edges]),
                          size, settings)
        values[:, nodes] = out[:2]
        charged &= bool((out[2:] > settings.equivalence_floor).all())
    dead = np.isinf(values).any(0)
    if dead[tree.root]:
        raise NoMartingaleMeasure(f"no martingale kernel at node {_first_dead(tree, dead)}")
    return -float(values[0, tree.root]), float(values[1, tree.root]), charged


def good_deal_bounds_per_group(tree, assets, caps, x, settings=DEFAULT) -> tuple[float, float]:
    """The good-deal bounds as computed before the capped level groups were
    stacked: one :func:`tcpp.scenario._kernel_max` per level group, which
    solves that group's slice systems in its own batches, for both sides."""
    cap, settings = caps.on(tree), pinned(settings)
    validate_stopping_time(tree, x.at)
    require_finite(x, "claim value")
    if not np.isfinite(cap).any():
        return _uncapped_bounds(_vertex_table(tree, assets, settings), x)
    steps = _level_steps(tree, _spot(tree, assets))
    sizes = [_kernel_support_size(tree, nodes, kids.shape[1], len(assets), settings,
                                  bool(np.isfinite(cap[nodes]).any()))
             for nodes, kids, *_ in steps]
    values = np.empty((2, tree.n_nodes))      # the lower side negated, the upper side
    values[:, list(tree.leaves)] = np.outer([-1.0, 1.0], lift_to_leaves(tree, x))
    for (nodes, kids, p, drift), size in zip(steps, sizes):
        values[:, nodes] = _kernel_max(p, drift, cap[nodes], values[:, kids], size, settings)
    dead = np.isinf(values).any(0)
    if dead[tree.root]:
        node = _first_dead(tree, dead)
        _vertex_table(tree, assets, settings, steps)      # raises when M is empty too
        raise EmptyGoodDealSet(f"caps exclude every martingale kernel at node {node}")
    return -float(values[0, tree.root]), float(values[1, tree.root])


def slice_systems_pinv(rp: np.ndarray, drift: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slice systems of :func:`tcpp.scenario._slice_systems` by the
    pseudo-inverse, one SVD per system: A, the projections pinv(A) A onto
    their row spaces and the least-norm (least-squares) points pinv(A) e_1."""
    a = np.concatenate([rp[:, :, None, :], np.einsum("gcsd,gcs->gcds", drift, rp)], axis=2)
    pinv = np.linalg.pinv(a)
    return a, pinv @ a, pinv[..., 0]


def game_bounds_enumerated(pay: np.ndarray, size: int,
                           settings: Settings) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the values of the matrix games ``pay[g]`` as
    :func:`tcpp.market._game_bounds` computed them before it read the pure
    strategies off the matrix: every square kernel of 1 to ``size`` rows and
    columns, 1 x 1 ones included, goes through
    :func:`tcpp.market._equalizer`."""
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


def good_deal_bounds_cuts(tree, assets, caps, x, settings=DEFAULT,
                          cut_tol: float = 1e-8, max_cut_rounds: int = 2000,
                          trace: list | None = None) -> tuple[float, float]:
    """Price bounds over martingale measures with capped one-step second
    moments, by cutting planes on the per-node cone constraints.

    A cap of exactly 1 pins the kernel to the reference one at that node
    (Cauchy-Schwarz equality) and is handled by linear rows directly.
    Every round's LP and solution are appended to ``trace`` when given.
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
        for round_no in range(max_cut_rounds):
            lp = LinearProgram(list(coef), base + pinned + cuts, sense=sense)
            sol = solve(lp, settings)
            if trace is not None:
                trace.append((lp, sol))
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
                if viol > cut_tol and mass_n * viol > 10 * settings.feasibility_tol:
                    violated.append(node)
            if not violated:
                return sol.value
            for node in violated:
                cuts.append(_soc_cut(tree, mu, node, caps.cap(node), nl))
        raise NumericalBreakdown("cutting planes failed to converge")

    lo = one_side("min")
    hi = one_side("max")
    return lo, hi


def _soc_cut(tree, mu: np.ndarray, node: int, a_cap: float,
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


def good_deal_segment_oracle(tree, asset, cap: float, x) -> tuple[float, float]:
    """Good-deal bounds for one asset on a tree whose nodes all have three
    children, by a recursion along each node's martingale line.

    There the martingale kernels are q(t) = q0 + t d, with q0 a particular
    solution and d spanning the null space of [1; dS].  Nonnegativity cuts
    t to an interval, the cap sum q_c^2 / p_c <= cap^2 to another (the roots
    of a quadratic), and the objective is linear in t, so each node's
    extremes sit at the ends of their intersection.
    """
    leaf = dict(zip(tree.leaves, lift_to_leaves(tree, x)))
    hi = dict(leaf)
    lo = dict(leaf)
    for node in tree.between(tree.root, frozenset(tree.leaves)):
        kids = tree.children[node]
        if not kids:
            continue
        p = np.array(tree.p_kernel(node))
        ds = np.array([asset.values[c] - asset.values[node] for c in kids])
        m = np.vstack([np.ones(3), ds])
        q0 = np.linalg.lstsq(m, np.array([1.0, 0.0]), rcond=None)[0]
        d = np.linalg.svd(m)[2][-1]
        t_lo, t_hi = -np.inf, np.inf
        for qi, di in zip(q0, d):           # q0_i + t d_i >= 0
            if di > 0:
                t_lo = max(t_lo, -qi / di)
            elif di < 0:
                t_hi = min(t_hi, -qi / di)
        a2, a1, a0 = (d * d / p).sum(), 2 * (q0 * d / p).sum(), (q0 * q0 / p).sum() - cap ** 2
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            raise ValueError(f"cap excludes every martingale kernel at node {node}")
        r = math.sqrt(disc)
        t_lo, t_hi = max(t_lo, (-a1 - r) / (2 * a2)), min(t_hi, (-a1 + r) / (2 * a2))
        if t_lo > t_hi:
            raise ValueError(f"cap excludes every martingale kernel at node {node}")
        ends = [q0 + t * d for t in (t_lo, t_hi)]
        hi[node] = max(float(q @ [hi[c] for c in kids]) for q in ends)
        lo[node] = min(float(q @ [lo[c] for c in kids]) for q in ends)
    return lo[tree.root], hi[tree.root]


# -- check_sublinear as first written: one price call per claim and scale ------

def check_sublinear_per_claim(model: ScenarioModel, n_samples: int = 20,
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


# -- nfl's zero-cost strategies as first written: one price call per claim -------
# ``tcpp.nfl`` now samples and validates every strategy of a verdict in two
# stacked passes; these are the sampler, the validator and the verdict that
# priced one claim per pass and compared the sandwich sample by sample.

def validate_zero_cost_by_price(model, strat, tol: float = 1e-9) -> None:
    tree = model.tree
    root = StoppingTime.at_root(tree)
    p0 = price(model, strat.initial, root).values[tree.root]
    if p0 > tol:
        raise TcppError(f"initial claim has positive root price {p0!r}")
    prev = None
    for tau, z, y in strat.swaps:
        if prev is not None and not precedes(tree, prev, tau):
            raise TcppError("swap times must be nondecreasing")
        prev = tau
        ask_z = price(model, z, tau)
        bid_y = -price(model, -y, tau)
        short = ask_z.array > bid_y.array + tol
        if short.any():
            raise TcppError(f"swap not self-financing at atom {tau.index[short.argmax()]}")


def sample_zero_cost_by_price(model, seed: int = 0, n_swaps: int = 2):
    """Random strategy attainable at zero cost, each W, Y and -Y priced by
    its own pass and validated claim by claim."""
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
    validate_zero_cost_by_price(model, strat)
    return strat


def sample_zero_cost_claims(model, draws):
    """``tcpp.nfl.sample_zero_cost_batch`` as it built its strategies claim
    by claim, before they were columns: one pass from the horizon over every
    W, Y and -Y, then per swap the spread read on its time's atoms and
    lifted to the leaves by ``owner_index``.  Not validated."""
    tree = model.tree
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
        strat = ZeroCostStrategy(Claim(horizon, w - out[tree.root, i]), [])
        for tau, y in swaps:
            spread = ask[tau.index, k] + neg_bid[tau.index, k]
            z = y - spread[tree.owner_index(tau.index, horizon.index)]
            strat.swaps.append((tau, Claim(horizon, z), Claim(horizon, y)))
            k += 1
        strats.append(strat)
    return strats


def nfl_verdict_by_price(model, seed: int = 0, n_samples: int = 50,
                         n_strategies: int = 20, settings=DEFAULT) -> NflReport:
    tree = model.tree
    root = StoppingTime.at_root(tree)
    horizon = StoppingTime.at_horizon(tree)
    tol = settings.feasibility_tol
    rng = np.random.default_rng(seed)
    checks = CheckReport(check="no free lunch", passed=True)
    static = find_static_free_lunch(model, settings)
    measure = find_zero_penalty_equivalent_measure(model, settings)
    if (static is None) != (measure is not None):
        raise InconsistentVerdicts("static and measure searches disagree")
    if measure is not None:
        pen = minimal_penalty(model, measure, root, horizon, settings).values[tree.root]
        if pen > tol:
            raise InconsistentVerdicts(f"certificate measure has penalty {pen!r}")
        checks.info["certificate_penalty"] = pen
        checks.info["min_density"] = min(measure.density.values())
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
        masses = measure.leaf_masses(tree)
        for i in range(n_strategies):
            strat = sample_zero_cost_by_price(model, seed=seed + 1 + i,
                                              n_swaps=int(rng.integers(0, 3)))
            ev = float(masses @ strat.payoff(tree).array)
            if ev > tol:
                checks.add(f"strategy {i}", f"zero-cost payoff has positive expectation {ev!r}")
        cert = FreeLunchCertificate("zero-penalty-equivalent-measure", measure=measure)
    else:
        p = price(model, static.claim, root).values[tree.root]
        if p > tol:
            raise InconsistentVerdicts(f"static certificate priced at {p!r} > 0")
        checks.info["certificate_price"] = p
        checks.info["iv_refuted_by"] = "certificate claim"
        cert = static
    if not checks.passed:
        raise InconsistentVerdicts("sampled corroboration failed: " + checks.summary())
    return NflReport(no_free_lunch=static is None, certificate=cert, checks=checks)


# -- check_axioms atom by atom -----------------------------------------------------
# The axiom checks before each property became one comparison over whole
# arrays: one loop over the atoms per property and one ``flatnonzero`` per atom.

def check_axioms_per_atom(model, samples, lambdas=(0.0, 0.3, 0.5, 1.0), seed=0,
                          tol=1e-12) -> CheckReport:
    """Verify monotonicity, translation invariance, convexity, normalization."""
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

        def rows(m: np.ndarray) -> np.ndarray:
            out = np.full((tree.n_nodes, m.shape[1]), np.nan)
            out[atoms] = m
            return out

        vx = backward_pass(model, tau, rows(X))
        vy = backward_pass(model, tau, rows(Y))
        vmin = backward_pass(model, tau, rows(np.minimum(X, Y)))
        vzero = backward_pass(model, tau, rows(np.zeros_like(X[:, :1])))
        t_max = min(tree.times[b] for b in cut)
        sigma_nodes = sorted(a for a in range(tree.n_nodes)       # the rows the pass fills
                             if not np.isnan(vx[a, 0]) and tree.times[a] <= t_max)

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
            anc_of = owners(tree, sig_atoms, atoms)
            shift = np.array([[z[anc_of[b]]] * k for b in atoms])
            vt = backward_pass(model, tau, rows(X + shift))
            for a in sig_atoms:
                bad = np.flatnonzero(np.abs(vt[a] - (vx[a] + z[a])) > tol)
                for j in bad:
                    report.add(f"sample {idxs[j]} atom {a}",
                               f"translation invariance off by "
                               f"{abs(vt[a][j] - vx[a][j] - z[a]):.3e}")
    return report


# -- check-tcpp's checks family by family -----------------------------------------
# ``tcpp.pricing`` and ``tcpp.scenario`` now price each cut's axiom claims in
# one stacked pass, share one direct pass among the chains that end at one
# cut, and check every cocycle selection as a column of one induction; these
# are the checks that ran one pass per property family, two passes per chain
# and one induction per selection, and the command, as it prints now, that
# called them with claim objects.

def check_axioms_per_family(model, samples, lambdas=(0.0, 0.3, 0.5, 1.0), seed=0,
                            tol=1e-12) -> CheckReport:
    """Verify monotonicity, translation invariance, convexity, normalization."""
    tree = model.tree
    times = np.array(tree.times)
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
        validate_stopping_time(tree, tau)
        X = _columns(tree, tau, [samples[i][0] for i in idxs])
        Y = _columns(tree, tau, [samples[i][1] for i in idxs])
        vx, vy = backward_pass(model, tau, X), backward_pass(model, tau, Y)
        vmin = backward_pass(model, tau, np.minimum(X, Y))
        vzero = backward_pass(model, tau, np.zeros((tree.n_nodes, 1)))[:, 0]
        t_max = min(tree.times[b] for b in cut)
        sigma = np.flatnonzero(times <= t_max)      # the atoms of the times up to t_max

        norm = np.abs(vzero[sigma]) > tol
        mono = vmin[sigma] > np.minimum(vx[sigma], vy[sigma]) + tol
        for r in np.flatnonzero(norm | mono.any(axis=1)):
            a = sigma[r]
            if norm[r]:
                report.add(f"atom {a}", f"normalization: price of 0 is {float(vzero[a])!r}")
            for j in np.flatnonzero(mono[r]):
                report.add(f"sample {idxs[j]} atom {a}",
                           f"monotonicity: min claim priced {vmin[a, j]:.15g} above "
                           f"{min(vx[a, j], vy[a, j]):.15g}")
        for lam in lambdas:
            vc = backward_pass(model, tau, lam * X + (1 - lam) * Y)[sigma]
            rhs = lam * vx[sigma] + (1 - lam) * vy[sigma]
            for r, j in np.argwhere(vc > rhs + tol):
                report.add(f"sample {idxs[j]} atom {sigma[r]}",
                           f"convexity at lambda={lam}: {vc[r, j]:.15g} > {rhs[r, j]:.15g}")
        # translation invariance with a random F_sigma-measurable shift
        for t in range(t_max + 1):
            atoms = np.flatnonzero(times == t)
            z = np.zeros(tree.n_nodes)
            z[atoms] = rng.uniform(-2.0, 2.0, len(atoms))
            # each cut node takes the shift of its atom
            z[tau.index] = z[atoms[tree.owner_index(atoms, tau.index)]]
            vt = backward_pass(model, tau, X + z[:, None])[atoms]
            for r, j in np.argwhere(np.abs(vt - (vx[atoms] + z[atoms, None])) > tol):
                a = atoms[r]
                report.add(f"sample {idxs[j]} atom {a}", f"translation invariance off by "
                           f"{abs(vt[r, j] - vx[a, j] - z[a]):.3e}")
    return report


def chain_prices_per_chain(model, nu, sigma, tau, xs) -> tuple[np.ndarray, np.ndarray]:
    """Direct and two-step ask prices at nu of each claim at tau, from a
    direct pass and a composed pass of their own."""
    for st in (nu, sigma, tau):
        validate_stopping_time(model.tree, st)
    for x in xs:
        require_finite(x, "claim value")
    direct = backward_pass(model, tau, _columns(model.tree, tau, xs))
    composed = backward_pass(model, sigma, direct)
    return direct[nu.index], composed[nu.index]


def check_time_consistency_per_chain(evaluator, chains, samples, tol=1e-9) -> CheckReport:
    """Compare direct pricing against two-step composition over each chain:
    for a scenario model by :func:`chain_prices_per_chain`, else claim by claim."""
    tree = evaluator.tree
    report = CheckReport(check="time consistency", passed=True)
    for ci, (nu, sigma, tau) in enumerate(chains):
        if not (precedes(tree, nu, sigma) and precedes(tree, sigma, tau)):
            raise TcppError(f"chain {ci} is not ordered")
        idxs = [si for si, x in enumerate(samples) if x.at == tau]
        xs = [samples[si] for si in idxs]
        if isinstance(evaluator, ScenarioModel):
            direct, composed = chain_prices_per_chain(evaluator, nu, sigma, tau, xs)
        else:
            shape = (len(xs), len(nu.cut))
            direct = np.reshape([evaluator.price(x, nu).array for x in xs], shape).T
            composed = np.reshape([evaluator.price(evaluator.price(x, sigma), nu).array
                                   for x in xs], shape).T
        for j, r in np.argwhere((np.abs(direct - composed) > tol).T):    # sample-major
            a = int(nu.index[r])
            report.add(f"chain {ci} sample {idxs[j]} atom {a}",
                       f"direct {direct[r, j]:.12g} != composed {composed[r, j]:.12g}")
            report.info.setdefault("witness_node", a)
    return report


def _one_step_one_column(values, kids, kernel, penalty) -> np.ndarray:
    return penalty + np.einsum("gk,gk->g", kernel, values[kids])


def cumulative_penalties_per_selection(model, sel, tau=None) -> np.ndarray:
    """Expected sum of chosen one-step penalties from each node to tau."""
    tree = model.tree
    choice = _check_selection(model, sel)
    if tau is None:
        tau = StoppingTime.at_horizon(tree)
    else:
        validate_stopping_time(tree, tau)
    g = np.zeros(tree.n_nodes)
    for nodes, kids, kernel, penalty in model.steps(tau.cut, choice):
        g[nodes] = _one_step_one_column(g, kids, kernel, penalty)
    return g


def check_cocycle_per_selection(penalty, model, tol=1e-12) -> CheckReport:
    """Validate an externally supplied penalty process against the cocycle."""
    tree = model.tree
    choice = _check_selection(model, penalty.selection)
    given = penalty.values
    if np.shape(given) != (tree.n_nodes,):
        raise TcppError(f"a penalty process needs {tree.n_nodes} values, got {np.shape(given)}")
    report = CheckReport(check="cocycle", passed=True)
    for leaf in np.array(tree.leaves)[np.abs(given[list(tree.leaves)]) > tol].tolist():
        report.add(f"node {leaf}", f"horizon value {given[leaf].item()!r} is not 0")
    steps = list(model.steps(tree.leaves, choice))
    expect = given.copy()
    for nodes, kids, kernel, pen in steps:
        expect[nodes] = _one_step_one_column(given, kids, kernel, pen)
    for node in np.flatnonzero(np.abs(given - expect) > tol).tolist():
        report.add(f"node {node}",
                   f"value {given[node]:.12g} != one-step penalty + expected "
                   f"continuation {expect[node]:.12g}")

    def agrees_from(t1: int) -> bool:
        rhs = given.copy()
        for nodes, kids, kernel, pen in steps:
            if tree.times[nodes[0]] < t1:
                rhs[nodes] = _one_step_one_column(rhs, kids, kernel, pen)
        return not (np.abs(given - rhs) > max(tol, 1e-9)).any()

    det_ok = bool((expect == given).all()) or all(map(agrees_from, range(1, tree.horizon)))
    report.info["deterministic_passed"] = det_ok
    report.info["stopping_time_passed"] = report.passed
    return report


def check_tcpp_per_family(model, seed: int, n_samples: int = 200) -> list[str]:
    """The machine-format lines of ``tcpp check-tcpp`` on ``model`` as the
    command printed them with the checks above, over claim objects."""
    tree = model.tree
    lines = []

    def report(rep: CheckReport) -> None:
        lines.append(f"check.{rep.check.replace(' ', '-')}\t{'pass' if rep.passed else 'FAIL'}")
        lines.extend(f"witness\t{f.where} -- {f.message}" for f in rep.findings)

    rng = np.random.default_rng(seed)
    horizon = StoppingTime.at_horizon(tree)
    draws = rng.uniform(-2, 2, size=(n_samples, 2, len(tree.leaves)))
    samples = [(Claim(horizon, x), Claim(horizon, y)) for x, y in draws]
    axioms = check_axioms_per_family(model, samples, seed=seed)
    report(axioms)
    chains = []
    for _ in range(5):
        sigma = random_stopping_time(tree, rng)
        chains.append((StoppingTime.at_root(tree), sigma, horizon))
    tc = check_time_consistency_per_chain(model, chains, [x for x, _ in samples[:50]])
    report(tc)
    report(check_nondegenerate(model))
    lines.append(f"sublinear\t{str(bool(check_sublinear(model, seed=seed))).lower()}")
    return lines


# -- backward induction node by node -------------------------------------------
# The inductions before they ran one level group at a time on packed menus:
# one node and one menu entry per step.

def backward_pass_per_node(model, at, rows, floor=None) -> dict[int, np.ndarray]:
    """Menu-maximum recursion from the cut to the root, vectorized over claims."""
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
        if floor is not None and node in floor:
            best = np.maximum(best, floor[node])
        values[node] = best
    return values


def cumulative_penalties_per_node(model, sel, tau=None) -> dict[int, float]:
    """Expected sum of chosen one-step penalties from each node to tau."""
    tree = model.tree
    choice = sel.as_dict()
    tau = tau if tau is not None else StoppingTime.at_horizon(tree)
    g = dict.fromkeys(range(tree.n_nodes), 0.0)
    for node in tree.between(tree.root, tau.cut):
        if node not in tau.cut:
            entry = model.menus[node][choice[node]]
            g[node] = entry.penalty + sum(
                entry.kernel[i] * g[c] for i, c in enumerate(tree.children[node]))
    return g


def levels_by_walk(tree, cut) -> dict[tuple[int, int], list[int]]:
    """Nodes strictly above the cut by (time, arity), from a level walk."""
    groups: dict[tuple[int, int], list[int]] = {}
    for node in tree.between(tree.root, frozenset(cut)):
        if node not in cut:
            groups.setdefault((tree.times[node], len(tree.children[node])), []).append(node)
    return groups


# -- market and claim files read line by line -----------------------------------
# The parsers before they read a file in blocks: one record per loop step,
# each fault raised at its line as the loop meets it.

_SETTING_FIELDS = {f.name: f.type for f in dataclasses.fields(Settings)}
_IGNORED_SETTINGS = ("cut_tol", "max_cut_rounds", "verify_lp",      # accepted and ignored
                     "rank_tol", "duality_tol")


def _num(token: str, line: int, what: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise MarketFileError(f"{what}: {token!r} is not a number", line)
    if not math.isfinite(x):
        raise MarketFileError(f"{what}: {token!r} is not a finite number", line)
    return x


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MarketFileError(f"{what}: {token!r} is not an integer", line)


def parse_market_text(text: str) -> MarketData:
    horizon: tuple[int, int] | None = None
    nodes: dict[int, tuple[int, int | None, int]] = {}   # id -> (time, parent, line)
    weights: dict[int, tuple[float, int]] = {}
    menus: dict[int, list[tuple[tuple[float, ...], float, int]]] = {}
    assets: dict[str, dict[int, float]] = {}
    quote_heads: dict[str, tuple[float, float, int]] = {}
    payoffs: dict[str, dict[int, float]] = {}
    caps_default: float | None = None
    caps_nodes: dict[int, tuple[float, int]] = {}
    vertices: list[tuple[float, ...]] = []
    overrides: dict[str, float | int | bool] = {}
    any_cap = False

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "horizon":
            if len(args) != 1:
                raise MarketFileError("horizon takes one integer", ln)
            horizon = (_int(args[0], ln, "horizon"), ln)
        elif kind == "node":
            if len(args) != 3:
                raise MarketFileError("node takes: id time parent", ln)
            nid = _int(args[0], ln, "node id")
            t = _int(args[1], ln, "node time")
            par = None if args[2] == "-" else _int(args[2], ln, "node parent")
            if nid in nodes:
                raise MarketFileError(f"node {nid} defined twice", ln)
            nodes[nid] = (t, par, ln)
        elif kind == "weight":
            if len(args) != 2:
                raise MarketFileError("weight takes: leaf value", ln)
            weights[_int(args[0], ln, "leaf id")] = (_num(args[1], ln, "weight"), ln)
        elif kind == "menu":
            if len(args) < 4 or args[1] != "kernel" or "penalty" not in args:
                raise MarketFileError("menu takes: node kernel <p...> penalty <a>", ln)
            node = _int(args[0], ln, "menu node")
            pidx = args.index("penalty")
            kernel = tuple(_num(tok, ln, "kernel weight") for tok in args[2:pidx])
            if len(args) != pidx + 2:
                raise MarketFileError("menu needs exactly one penalty value", ln)
            pen = _num(args[pidx + 1], ln, "penalty")
            menus.setdefault(node, []).append((kernel, pen, ln))
        elif kind == "asset":
            if len(args) != 3:
                raise MarketFileError("asset takes: name node value", ln)
            assets.setdefault(args[0], {})[_int(args[1], ln, "asset node")] = \
                _num(args[2], ln, "asset value")
        elif kind == "quote":
            if len(args) != 5 or args[1] != "bid" or args[3] != "ask":
                raise MarketFileError("quote takes: name bid <b> ask <a>", ln)
            quote_heads[args[0]] = (_num(args[2], ln, "bid"), _num(args[4], ln, "ask"), ln)
        elif kind == "payoff":
            if len(args) != 3:
                raise MarketFileError("payoff takes: name node value", ln)
            payoffs.setdefault(args[0], {})[_int(args[1], ln, "payoff node")] = \
                _num(args[2], ln, "payoff value")
        elif kind == "cap":
            if len(args) != 2:
                raise MarketFileError("cap takes: node|* value", ln)
            any_cap = True
            cap = _num(args[1], ln, "cap")
            try:
                GoodDealCaps(cap)    # its own check, here to name the line
            except TcppError as exc:
                raise MarketFileError(str(exc), ln)
            if args[0] == "*":
                caps_default = cap
            else:
                caps_nodes[_int(args[0], ln, "cap node")] = (cap, ln)
        elif kind == "vertex":
            if not args:
                raise MarketFileError("vertex needs at least one coordinate", ln)
            vertices.append(tuple(_num(tok, ln, "vertex coordinate") for tok in args))
        elif kind == "set":
            if len(args) != 2:
                raise MarketFileError("set takes: key value", ln)
            key = args[0]
            if key in _IGNORED_SETTINGS:
                continue
            if key not in _SETTING_FIELDS:
                raise MarketFileError(f"unknown setting {key!r}", ln)
            if key == "max_enum":
                overrides[key] = _int(args[1], ln, key)
            else:
                overrides[key] = _num(args[1], ln, key)
            try:
                Settings(**{key: overrides[key]})
            except TcppError as exc:
                raise MarketFileError(str(exc), ln)
        else:
            raise MarketFileError(f"unknown record {kind!r}", ln)

    if not nodes:
        raise MarketFileError("document defines no nodes")
    nid_line = min(ln for _, _, ln in nodes.values())
    if sorted(nodes) != list(range(len(nodes))):
        raise MarketFileError("node ids must be contiguous from 0", nid_line)
    times = [nodes[i][0] for i in range(len(nodes))]
    parents = [nodes[i][1] for i in range(len(nodes))]
    try:
        tree = FiltrationTree(times, parents, {v: w for v, (w, _) in weights.items()})
    except TcppError as exc:
        raise MarketFileError(f"invalid tree: {exc}", nid_line)
    if horizon is not None and horizon[0] != tree.horizon:
        raise MarketFileError(
            f"declared horizon {horizon[0]} but leaves sit at {tree.horizon}", horizon[1])

    model = None
    if menus:
        first_ln = min(ln for entries in menus.values() for _, _, ln in entries)
        try:
            model = ScenarioModel(tree, {
                node: [MenuEntry(k, p) for k, p, _ in entries]
                for node, entries in menus.items()})
        except TcppError as exc:
            raise MarketFileError(f"invalid scenario model: {exc}", first_ln)

    asset_list = []
    for name in sorted(assets):
        ap = AssetProcess(name, assets[name])
        try:
            ap.validate(tree)
        except TcppError as exc:
            raise MarketFileError(f"asset {name}: {exc}")
        asset_list.append(ap)

    quotes = []
    for name in sorted(set(quote_heads) | set(payoffs)):
        if name not in quote_heads:
            raise MarketFileError(f"payoff {name!r} has no quote line")
        if name not in payoffs:
            raise MarketFileError(f"quote {name!r} has no payoff values")
        bid, ask, ln = quote_heads[name]
        cut = StoppingTime.of(payoffs[name])
        try:
            validate_stopping_time(tree, cut)
            claim = Claim(cut, payoffs[name])
            quotes.append(QuotedOption(name, claim, bid, ask))
        except TcppError as exc:
            raise MarketFileError(f"quote {name}: {exc}", ln)

    for node, (_, ln) in caps_nodes.items():
        if not (0 <= node < tree.n_nodes and tree.children[node]):
            raise MarketFileError(f"cap node {node} is not an internal node of the tree", ln)
    caps = (GoodDealCaps(caps_default, {v: c for v, (c, _) in caps_nodes.items()})
            if any_cap else None)
    h_set = ConstraintSet(vertices) if vertices else None
    settings = dataclasses.replace(Settings(), **overrides) if overrides else Settings()
    return MarketData(tree, model, asset_list, quotes, caps, h_set, settings)


def parse_claim_text(text: str, tree: FiltrationTree,
                     full_process: bool = False) -> Claim | dict[int, float]:
    """Claim file: ``value <node> <x>`` lines.

    With ``full_process`` the values must cover every node (an adapted
    payoff process); otherwise the nodes must form a stopping time.
    """
    values: dict[int, float] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "value" or len(parts) != 3:
            raise MarketFileError("claim lines read: value <node> <x>", ln)
        values[_int(parts[1], ln, "node")] = _num(parts[2], ln, "value")
    if full_process:
        missing = [v for v in range(tree.n_nodes) if v not in values]
        if missing:
            raise MarketFileError(f"payoff process misses nodes {missing}")
        return values
    cut = StoppingTime.of(values)
    try:
        validate_stopping_time(tree, cut)
    except TcppError as exc:
        raise MarketFileError(f"claim nodes are not a stopping time: {exc}")
    return Claim(cut, values)
