"""Finite filtered probability space as an event tree.

Nodes are integers 0..N-1 with a single root at time 0; leaves all sit at
the horizon and carry the strictly positive reference weights P.  Stopping
times are antichains of nodes hit exactly once by every root-to-leaf path,
so measurability is structural rather than numerical.

Every ancestry question goes through one index built when the tree is:
the preorder interval ``[enter[v], exit[v])`` of each node, so that ``a``
is an ancestor-or-self of ``b`` exactly when ``b``'s entry falls inside
``a``'s interval.  A cut is a stopping time when its intervals are
disjoint and their leaf counts add up to the number of leaves; the owner
of a node in a cut is found by bisection over the cut's sorted entries;
and ``between`` lists the nodes from a top node down to a cut level by
level, which is the order of every backward induction.  No walk recurses,
so depth is bounded by memory, not by Python's recursion limit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ForeignNode, MassMismatch, TcppError


class FiltrationTree:
    """Event tree for (Omega, F, (F_t), P) with reference leaf weights."""

    def __init__(self, times: Sequence[int], parents: Sequence[int | None],
                 leaf_weights: Mapping[int, float]):
        n = len(times)
        if len(parents) != n:
            raise TcppError("times and parents must have equal length")
        self.times = tuple(int(t) for t in times)
        self.parents = tuple(parents)
        children: list[list[int]] = [[] for _ in range(n)]
        roots = []
        for node, par in enumerate(self.parents):
            if par is None:
                roots.append(node)
            else:
                if not 0 <= par < n:
                    raise ForeignNode(f"node {node} has parent {par} outside the tree")
                children[par].append(node)
        if len(roots) != 1:
            raise TcppError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]
        if self.times[self.root] != 0:
            raise TcppError("root must sit at time 0")
        self.children = tuple(tuple(c) for c in children)
        self.horizon = max(self.times)
        if self.horizon < 1:
            raise TcppError("horizon must be at least 1")
        for node in range(n):
            par = self.parents[node]
            if par is not None and self.times[node] != self.times[par] + 1:
                raise TcppError(f"node {node} is not one period after its parent")
            if not self.children[node] and self.times[node] != self.horizon:
                raise TcppError(f"leaf {node} is not at the horizon")
        self.leaves = tuple(v for v in range(n) if not self.children[v])
        missing = [v for v in self.leaves if v not in leaf_weights]
        if missing:
            raise TcppError(f"missing leaf weights for {missing}")
        w = np.array([float(leaf_weights[v]) for v in self.leaves])
        if np.any(w <= 0):
            raise TcppError("every leaf weight must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise TcppError(f"leaf weights sum to {w.sum()!r}, expected 1")
        self.leaf_weights = {v: float(leaf_weights[v]) for v in self.leaves}
        self.leaf_index = {v: i for i, v in enumerate(self.leaves)}

        # preorder intervals: the subtree of v is preorder[enter[v]:exit[v]]
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        self.preorder = tuple(order)
        self.enter = [0] * n
        self.exit = [0] * n
        for i, v in enumerate(order):
            self.enter[v] = i
        self._subtree_leaves: list[tuple[int, ...]] = [()] * n
        for v in reversed(order):    # children before parents
            kids = self.children[v]
            if kids:
                self.exit[v] = self.exit[kids[-1]]
                acc: list[int] = []
                for c in kids:
                    acc += self._subtree_leaves[c]
                self._subtree_leaves[v] = tuple(acc)
            else:
                self.exit[v] = self.enter[v] + 1
                self._subtree_leaves[v] = (v,)
        self._p_mass = [sum(self.leaf_weights[v] for v in self._subtree_leaves[u])
                        for u in range(n)]

    # -- basic queries ----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.times)

    def nodes_at(self, t: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.n_nodes) if self.times[v] == t)

    def internal_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n_nodes) if self.children[v])

    def subtree_leaves(self, node: int) -> tuple[int, ...]:
        return self._subtree_leaves[node]

    def p_mass(self, node: int) -> float:
        return self._p_mass[node]

    def p_kernel(self, node: int) -> tuple[float, ...]:
        """Reference one-step transition law at an internal node."""
        total = self._p_mass[node]
        return tuple(self._p_mass[c] / total for c in self.children[node])

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when a is an ancestor of b or equal to it."""
        return self.enter[a] <= self.enter[b] < self.exit[a]

    def owners(self, nu: Iterable[int], nodes: Iterable[int]) -> dict[int, int | None]:
        """Ancestor-or-self of each node among ``nu``, or None where there is
        none; where ``nu`` nests, the outermost one."""
        starts: list[int] = []
        tops: list[int] = []
        end = 0
        for a in sorted(nu, key=self.enter.__getitem__):
            if self.enter[a] >= end:
                starts.append(self.enter[a])
                tops.append(a)
                end = self.exit[a]
        out: dict[int, int | None] = {}
        for b in nodes:
            i = bisect_right(starts, self.enter[b]) - 1
            out[b] = tops[i] if i >= 0 and self.enter[b] < self.exit[tops[i]] else None
        return out

    def between(self, top: int, cut: frozenset[int] | set[int]) -> list[int]:
        """Nodes from ``top`` down to the cut (or to the leaves where a path
        misses it), both ends included, deepest level first."""
        levels = []
        level = [top]
        while level:
            levels.append(level)
            level = [c for v in level if v not in cut for c in self.children[v]]
        return [v for level in reversed(levels) for v in level]

    def forward_mass(self, top: int, cut: frozenset[int],
                     kernel: Callable[[int], Sequence[float]]) -> dict[int, float]:
        """Mass that the one-step ``kernel(v)`` laws carry from ``top`` to
        each cut node below it: the product of weights along the path."""
        mass = {top: 1.0}
        out: dict[int, float] = {}
        for v in reversed(self.between(top, cut)):
            m = mass.pop(v)
            if v in cut:
                out[v] = m
            else:
                for w, c in zip(kernel(v), self.children[v]):
                    mass[c] = m * w
        return out

    def path(self, leaf: int) -> tuple[int, ...]:
        out = [leaf]
        while self.parents[out[-1]] is not None:
            out.append(self.parents[out[-1]])
        return tuple(reversed(out))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiltrationTree)
                and self.times == other.times
                and self.parents == other.parents
                and self.leaf_weights == other.leaf_weights)

    # -- builders ----------------------------------------------------------
    @staticmethod
    def from_branching(branching: Sequence[int],
                       leaf_weights: Sequence[float] | None = None) -> "FiltrationTree":
        """Regular tree with ``branching[t]`` children per node at time t."""
        times, parents = [0], [None]
        level = [0]
        for t, k in enumerate(branching):
            if k < 1:
                raise TcppError("branching factors must be >= 1")
            nxt = []
            for node in level:
                for _ in range(k):
                    times.append(t + 1)
                    parents.append(node)
                    nxt.append(len(times) - 1)
            level = nxt
        if leaf_weights is None:
            w = 1.0 / len(level)
            weights = {v: w for v in level}
        else:
            if len(leaf_weights) != len(level):
                raise TcppError("wrong number of leaf weights")
            weights = dict(zip(level, leaf_weights))
        return FiltrationTree(times, parents, weights)

    @staticmethod
    def binomial(periods: int, leaf_weights: Sequence[float] | None = None) -> "FiltrationTree":
        return FiltrationTree.from_branching([2] * periods, leaf_weights)

    @staticmethod
    def trinomial(periods: int, leaf_weights: Sequence[float] | None = None) -> "FiltrationTree":
        return FiltrationTree.from_branching([3] * periods, leaf_weights)


@dataclass(frozen=True)
class StoppingTime:
    """Antichain of nodes met exactly once by every root-to-leaf path."""

    cut: frozenset[int]

    @staticmethod
    def of(nodes: Iterable[int]) -> "StoppingTime":
        return StoppingTime(frozenset(int(v) for v in nodes))

    @staticmethod
    def at_root(tree: FiltrationTree) -> "StoppingTime":
        return StoppingTime(frozenset({tree.root}))

    @staticmethod
    def at_time(tree: FiltrationTree, t: int) -> "StoppingTime":
        return StoppingTime(frozenset(tree.nodes_at(t)))

    @staticmethod
    def at_horizon(tree: FiltrationTree) -> "StoppingTime":
        return StoppingTime(frozenset(tree.leaves))

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.cut))


def validate_stopping_time(tree: FiltrationTree, tau: StoppingTime) -> None:
    for v in tau.cut:
        if not 0 <= v < tree.n_nodes:
            raise ForeignNode(f"stopping time references node {v} outside the tree")
    leaves, end = 0, 0
    for v in sorted(tau.cut, key=tree.enter.__getitem__):
        if tree.enter[v] < end:
            break
        end = tree.exit[v]
        leaves += len(tree.subtree_leaves(v))
    else:
        if leaves == len(tree.leaves):
            return
    # name the first leaf whose path misses the cut or meets it twice
    hits = dict.fromkeys(tree.leaves, 0)
    for v in tau.cut:
        for leaf in tree.subtree_leaves(v):
            hits[leaf] += 1
    leaf = next(leaf for leaf in tree.leaves if hits[leaf] != 1)
    raise TcppError(f"path to leaf {leaf} meets the cut {hits[leaf]} times, expected 1")


def sigma_algebra_nodes(tree: FiltrationTree, tau: StoppingTime) -> frozenset[int]:
    """Atoms of the sigma-algebra at tau (the cut itself, once validated)."""
    validate_stopping_time(tree, tau)
    return tau.cut


def precedes(tree: FiltrationTree, nu: StoppingTime, tau: StoppingTime) -> bool:
    """nu <= tau nodewise: each tau node has an ancestor-or-self in nu."""
    return None not in tree.owners(nu.cut, tau.cut).values()


@dataclass(frozen=True)
class Claim:
    """F_tau-measurable payoff: one value per cut node, in numeraire units."""

    at: StoppingTime
    values: Mapping[int, float]

    def __post_init__(self):
        if set(self.values) != set(self.at.cut):
            raise TcppError("claim values must be defined on exactly the cut nodes")

    @staticmethod
    def constant(tau: StoppingTime, c: float) -> "Claim":
        return Claim(tau, {v: float(c) for v in tau.cut})

    def __getitem__(self, node: int) -> float:
        return self.values[node]

    def __neg__(self) -> "Claim":
        return Claim(self.at, {v: -x for v, x in self.values.items()})

    def __add__(self, other: "Claim") -> "Claim":
        if isinstance(other, (int, float)):
            return Claim(self.at, {v: x + other for v, x in self.values.items()})
        if other.at != self.at:
            raise TcppError("claim addition requires a common stopping time")
        return Claim(self.at, {v: x + other.values[v] for v, x in self.values.items()})

    def __sub__(self, other: "Claim") -> "Claim":
        return self + (-other if isinstance(other, Claim) else -float(other))

    def __rmul__(self, scalar: float) -> "Claim":
        return Claim(self.at, {v: scalar * x for v, x in self.values.items()})

    def allclose(self, other: "Claim", tol: float = 1e-9) -> bool:
        if self.at != other.at:
            return False
        return all(abs(self.values[v] - other.values[v]) <= tol for v in self.at.cut)

    def max_abs_diff(self, other: "Claim") -> float:
        return max(abs(self.values[v] - other.values[v]) for v in self.at.cut)


def lift(tree: FiltrationTree, z: Claim, tau: StoppingTime) -> Claim:
    """Extend a claim at nu to a finer stopping time tau >= nu by copying down."""
    if not precedes(tree, z.at, tau):
        raise TcppError("can only lift a claim to a later stopping time")
    owner = tree.owners(z.at.cut, tau.cut)
    return Claim(tau, {b: z.values[owner[b]] for b in tau.cut})


def lift_to_leaves(tree: FiltrationTree, x: Claim) -> np.ndarray:
    """Claim values spread to leaves, aligned with ``tree.leaves``."""
    out = np.empty(len(tree.leaves))
    for a, v in x.values.items():
        for leaf in tree.subtree_leaves(a):
            out[tree.leaf_index[leaf]] = v
    return out


@dataclass(frozen=True)
class Measure:
    """Absolutely continuous measure given by its density dQ/dP per leaf."""

    density: Mapping[int, float]

    def validate(self, tree: FiltrationTree, tol: float = 1e-9) -> None:
        if set(self.density) != set(tree.leaves):
            raise TcppError("density must be defined on exactly the leaves")
        total = 0.0
        for v, d in self.density.items():
            if d < -tol:
                raise TcppError(f"negative density at leaf {v}")
            total += d * tree.leaf_weights[v]
        if abs(total - 1.0) > max(tol, 1e-9):
            raise TcppError(f"densities integrate to {total!r}, expected 1")

    def is_equivalent(self, floor: float = 0.0) -> bool:
        return all(d > floor for d in self.density.values())

    def mass(self, tree: FiltrationTree, node: int) -> float:
        return sum(self.density[v] * tree.leaf_weights[v]
                   for v in tree.subtree_leaves(node))

    def leaf_masses(self, tree: FiltrationTree) -> np.ndarray:
        return np.array([self.density[v] * tree.leaf_weights[v] for v in tree.leaves])

    @staticmethod
    def reference(tree: FiltrationTree) -> "Measure":
        return Measure({v: 1.0 for v in tree.leaves})

    @staticmethod
    def from_leaf_masses(tree: FiltrationTree, masses: Mapping[int, float] | np.ndarray) -> "Measure":
        if not isinstance(masses, Mapping):
            masses = {v: float(masses[i]) for i, v in enumerate(tree.leaves)}
        return Measure({v: masses[v] / tree.leaf_weights[v] for v in tree.leaves})


def conditional_expectation(tree: FiltrationTree, q: Measure, x: Claim,
                            sigma: StoppingTime) -> Claim:
    """E_Q(X | F_sigma) atomwise; NaN marks atoms of zero Q-mass.

    The NaN marker is deliberate: the identity only holds Q-almost surely,
    and silently substituting 0 would corrupt essential suprema downstream.
    """
    if not precedes(tree, sigma, x.at):
        raise TcppError("conditioning time must precede the claim's stopping time")
    below: dict[int, list[int]] = {a: [] for a in sigma.cut}
    for b, a in tree.owners(sigma.cut, x.at.cut).items():
        below[a].append(b)
    vals = {}
    for a in sigma.cut:
        mass_a = q.mass(tree, a)
        if mass_a <= 0.0:
            vals[a] = math.nan
        else:
            vals[a] = sum(x.values[b] * q.mass(tree, b) for b in below[a]) / mass_a
    return Claim(sigma, vals)


def essential_supremum(tree: FiltrationTree, claims: Sequence[Claim]) -> Claim:
    """Atomwise maximum of claims sharing one stopping time."""
    if not claims:
        raise TcppError("essential supremum of an empty family")
    at = claims[0].at
    for c in claims[1:]:
        if c.at != at:
            raise TcppError("essential supremum requires a common stopping time")
    return Claim(at, {v: max(c.values[v] for c in claims) for v in at.cut})


def paste_measures(tree: FiltrationTree, q1: Measure, q2: Measure,
                   sigma: StoppingTime) -> Measure:
    """Measure equal to q1 on F_sigma and following q2's conditional law after.

    Raises :class:`MassMismatch` where q1 charges an atom on which q2's
    conditional law is undefined.
    """
    validate_stopping_time(tree, sigma)
    masses: dict[int, float] = {}
    for a in sigma.cut:
        m1 = q1.mass(tree, a)
        m2 = q2.mass(tree, a)
        for leaf in tree.subtree_leaves(a):
            if m1 == 0.0:
                masses[leaf] = 0.0
            elif m2 == 0.0:
                raise MassMismatch(
                    f"future law undefined on atom {a} charged by the past measure")
            else:
                masses[leaf] = m1 * q2.density[leaf] * tree.leaf_weights[leaf] / m2
    return Measure.from_leaf_masses(tree, masses)
