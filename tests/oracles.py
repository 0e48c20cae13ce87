"""Independent numerical oracles used to freeze expected values in tests."""
from __future__ import annotations

import math

import numpy as np

from tcpp.errors import ForeignNode, TcppError
from tcpp.scenario import cumulative_penalties
from tcpp.tree import Claim, StoppingTime


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
