"""Finite filtered probability space as an event tree.

Nodes are integers 0..N-1 with a single root at time 0; leaves all sit at
the horizon and carry the strictly positive reference weights P.  Stopping
times are antichains of nodes hit exactly once by every root-to-leaf path,
so measurability is structural rather than numerical.

Every ancestry question goes through one index, built on first use: the
preorder interval ``[enter[v], exit[v])`` of each node, so that ``a`` is an
ancestor-or-self of ``b`` exactly when ``b``'s entry falls inside ``a``'s
interval, and the leaves below a node are a slice of the leaves in
preorder.  The tree comes from its parent array in array operations:
children by a stable sort, subtree sizes bottom-up and preorder entries
top-down one time level at a time, the level groups by one sort; errors
name the first offending node, in id order.  A cut is a stopping time when
the path to every leaf meets it once, as one cover count of its intervals
shows; the owner of a node in a cut is found by one ``searchsorted`` over
the cut's sorted entries; ``levels`` groups the nodes strictly above a cut
by (time, arity), deepest first, as arrays of nodes and of their children:
the order of every backward induction, which handles one group in array
operations, and of ``sum_up``, which sums a measure's leaf masses, or a
claim's values times masses, up to every node, and, reversed, of
``product_down``, which carries one-step kernels' mass down from the root;
``between`` lists the nodes from a top node down to a cut level by level,
for the walks that follow a subtree; ``first_stops`` walks a subtree
in preorder, skipping below each stop; ``owners`` carries the atoms of
many cuts down the level groups at once; and ``ancestors_by_time`` climbs
the parent array a period at a time, for a cut's atoms at every earlier
time.  No walk recurses, so depth is
bounded by memory, not by Python's recursion limit.  A claim holds its
values as one array in the order of its sorted cut, and a ``ClaimStack``
many claims at one cut as the rows of one array.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain, filterfalse
from types import MappingProxyType

import numpy as np

from .errors import ForeignNode, MassMismatch, TcppError


# trees of at most this many nodes build their preorder index by one walk
_WALKED = 64


def _ints(values: Sequence) -> np.ndarray:
    """Integers as an int array, or as Python ints in an object array where
    one reaches 2**62 in size, so that no check on them overflows."""
    try:
        out = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    if len(out) and not -2**62 < out.min() <= out.max() < 2**62:
        return np.array(values, dtype=object)
    return out


class FiltrationTree:
    """Event tree for (Omega, F, (F_t), P) with reference leaf weights.

    ``times`` and ``parents`` (None at the root) come one per node, as
    sequences or arrays.  ``arity`` holds each node's number of children as
    a read-only array; ``children``, their ids, is built on first use.
    """

    def __init__(self, times: Sequence[int], parents: Sequence[int | None],
                 leaf_weights: Mapping[int, float]):
        n = len(times)
        if len(parents) != n:
            raise TcppError("times and parents must have equal length")
        given = tuple(parents)
        par, roots = list(given), []
        for _ in range(given.count(None)):
            roots.append(given.index(None, roots[-1] + 1 if roots else 0))
            par[roots[-1]] = -1
        par = _ints(par)
        foreign = (par < 0) | (par >= n)
        foreign[roots] = False
        if foreign.any():
            node = int(foreign.argmax())
            raise ForeignNode(f"node {node} has parent {given[node]} outside the tree")
        if len(roots) != 1:
            raise TcppError(f"expected exactly one root, found {len(roots)}")
        self.root = root = roots[0]
        par = par.astype(int, copy=False)
        t = _ints(times)
        if t[root] != 0:
            raise TcppError("root must sit at time 0")
        self.horizon = int(t.max())
        if self.horizon < 1:
            raise TcppError("horizon must be at least 1")
        arity = np.bincount(par[par >= 0], minlength=n)
        late = t != t[par] + 1
        late[root] = False
        bad = late | ((arity == 0) & (t != self.horizon))
        if bad.any():
            node = int(bad.argmax())
            raise TcppError(f"node {node} is not one period after its parent" if late[node]
                            else f"leaf {node} is not at the horizon")
        t = t.astype(int, copy=False)
        self.times = tuple(t.tolist())
        parent_list = par.tolist()
        parent_list[root] = None
        self.parents = tuple(parent_list)
        is_leaf = arity == 0
        leaves = is_leaf.nonzero()[0]
        self.leaves = tuple(leaves.tolist())
        missing = list(filterfalse(leaf_weights.__contains__, self.leaves))
        if missing:
            raise TcppError(f"missing leaf weights for {missing}")
        w = np.fromiter(map(float, map(leaf_weights.__getitem__, self.leaves)), float,
                        len(self.leaves))
        if (w <= 0).any():
            raise TcppError("every leaf weight must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise TcppError(f"leaf weights sum to {w.sum()!r}, expected 1")
        self.leaf_weights = dict(zip(self.leaves, w.tolist()))
        self.leaf_index = dict(zip(self.leaves, range(len(self.leaves))))
        arity.flags.writeable = False
        self.arity, self._times, self._leaf_mass = arity, t, w

        # children grouped by parent, each group ascending: kids[first[v]:first[v + 1]]
        kids = par.argsort(kind="stable")[1:]
        first = np.zeros(n + 1, dtype=int)
        first[1:] = arity.cumsum()
        self._par, self._kids, self._first = par, kids, first
        # internal nodes by (time, arity), deepest first, ascending within a
        # group, from one stable sort
        internal = (~is_leaf).nonzero()[0]
        key = (n + 1) * (self.horizon - t[internal]) + arity[internal]
        by_key = key.argsort(kind="stable")
        internal, key = internal[by_key], key[by_key]
        bounds = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(), len(key)]
        # the children of every internal node as a row, padded past its arity
        rows = kids[np.minimum(first[internal, None] + np.arange(arity.max()), n - 2)]
        self._levels = {}
        for a, b, group in zip(bounds[:-1], bounds[1:], key[bounds[:-1]].tolist()):
            depth, k = divmod(group, n + 1)
            self._levels[self.horizon - depth, k] = (internal[a:b], rows[a:b, :k])

    # -- the preorder index, built on first use ----------------------------
    @functools.cached_property
    def _span(self) -> np.ndarray:
        """Each node's preorder interval [enter, exit) as two rows: the
        subtree of v is preorder[enter[v]:exit[v]], and the leaves below it
        _pre_leaves[_leaves_before[enter[v]]:_leaves_before[exit[v]]].
        Subtree sizes add up one time level at a time, bottom-up; a child
        enters one after its parent plus the sizes of its elder siblings, one
        level at a time, top-down.  On a few nodes one walk down the
        children costs less than the array steps, and takes their place."""
        n, par, kids, first = self.n_nodes, self._par, self._kids, self._first
        if n <= _WALKED:
            order, stack, children = [], [self.root], self.children
            while stack:
                v = stack.pop()
                order.append(v)
                stack += children[v][::-1]
            size, parents = [1] * n, self.parents
            for v in reversed(order[1:]):
                size[parents[v]] += size[v]
            enter = np.empty(n, dtype=int)
            enter[order] = range(n)
            return np.array([enter, enter + size])
        by_time = self._times.argsort(kind="stable")
        level = np.bincount(self._times).cumsum().tolist()     # nodes up to each time
        levels = [by_time[a:b] for a, b in zip(level[:-1], level[1:])]
        size = np.ones(n, dtype=int)
        for nodes in reversed(levels):
            np.add.at(size, par[nodes], size[nodes])
        elder = np.zeros(n, dtype=int)
        elder[1:] = size[kids].cumsum()
        offset = np.zeros(n, dtype=int)
        offset[kids] = 1 + elder[:-1] - elder[first[:-1]].repeat(self.arity)
        enter = np.zeros(n, dtype=int)
        for nodes in levels:
            enter[nodes] = enter[par[nodes]] + offset[nodes]
        return np.array([enter, enter + size])

    @functools.cached_property
    def enter(self) -> list[int]:
        return self._span[0].tolist()

    @functools.cached_property
    def exit(self) -> list[int]:
        return self._span[1].tolist()

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """The nodes in preorder."""
        order = np.empty(self.n_nodes, dtype=int)
        order[self._span[0]] = np.arange(self.n_nodes)
        return order

    @functools.cached_property
    def _leaves_before(self) -> np.ndarray:
        """How many leaves come before each preorder position, and in all."""
        before = np.zeros(self.n_nodes + 1, dtype=int)
        before[1:] = (self.arity[self._order] == 0).cumsum()
        return before

    @functools.cached_property
    def _leaf_enter(self) -> np.ndarray:
        """The preorder position of each leaf, in the order of ``leaves``."""
        return self._span[0][self.arity == 0]

    # -- basic queries ----------------------------------------------------
    @functools.cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """The children of every node, ascending; built on first use."""
        flat, bounds = self._kids.tolist(), self._first.tolist()
        return tuple(map(tuple, map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:]))))

    @functools.cached_property
    def preorder(self) -> tuple[int, ...]:
        return tuple(self._order.tolist())

    @functools.cached_property
    def _pre_leaves(self) -> tuple[int, ...]:
        """The leaves in preorder."""
        return tuple(self._order[self.arity[self._order] == 0].tolist())

    @functools.cached_property
    def _p_mass(self) -> np.ndarray:
        """P's mass at every node, read-only."""
        mass = np.zeros(self.n_nodes)
        mass[list(self.leaves)] = self._leaf_mass
        mass = self.sum_up(mass)
        mass.flags.writeable = False
        return mass

    @functools.cached_property
    def _horizon_cut(self) -> "StoppingTime":
        return StoppingTime(frozenset(self.leaves))

    @property
    def n_nodes(self) -> int:
        return len(self.times)

    def nodes_at(self, t: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._times == t).tolist())

    def internal_nodes(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.arity).tolist())

    def subtree_leaves(self, node: int) -> tuple[int, ...]:
        """The leaves below ``node`` in preorder."""
        before = self._leaves_before
        return self._pre_leaves[before[self.enter[node]]:before[self.exit[node]]]

    def p_kernel(self, node: int) -> tuple[float, ...]:
        """Reference one-step transition law at an internal node."""
        kids = self._kids[self._first[node]:self._first[node + 1]]
        return tuple((self._p_mass[kids] / self._p_mass[node]).tolist())

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when a is an ancestor of b or equal to it."""
        return self.enter[a] <= self.enter[b] < self.exit[a]

    def owner_index(self, cut: Sequence[int] | np.ndarray,
                    nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Position in ``cut`` of each node's ancestor-or-self among the cut's
        nodes, -1 where there is none; where ``cut`` nests, the outermost one."""
        at = self._span[0][np.asarray(nodes, dtype=int)]
        if not len(cut):
            return np.full(len(at), -1)
        enter, leave = self._span[:, np.asarray(cut, dtype=int)]
        order = enter.argsort()
        enter, leave = enter[order], leave[order]
        # an interval starting inside an earlier one is nested in it: the
        # intervals are laminar
        top = np.ones(len(order), dtype=bool)
        top[1:] = enter[1:] >= np.maximum.accumulate(leave)[:-1]
        enter, leave, order = enter[top], leave[top], order[top]
        i = enter.searchsorted(at, side="right") - 1
        return np.where((i >= 0) & (at < leave[i]), order[i], -1)

    def owners(self, cuts: Sequence[Iterable[int]]) -> np.ndarray:
        """Each node's ancestor-or-self in each of the antichains ``cuts``, a
        column per cut, -1 where there is none: one level group of
        :meth:`levels` at a time, shallowest first, as :meth:`product_down`."""
        own = np.full((self.n_nodes, len(cuts)), -1)
        nodes = np.fromiter(chain.from_iterable(cuts), int)
        own[nodes, np.repeat(np.arange(len(cuts)), [len(c) for c in cuts])] = nodes
        for nodes, kids in reversed(self._levels.values()):
            below = own[kids]
            own[kids] = np.where(below >= 0, below, own[nodes, None])
        return own

    def ancestors_by_time(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row t, for each time t up to the earliest of ``nodes``' times: each
        node's ancestor-or-self at time t, one step up the parents per period."""
        up = np.asarray(nodes, dtype=int)
        t = self._times[up]
        out = np.empty((int(t.min()) + 1, len(up)), dtype=int)
        for s in range(int(t.max()), -1, -1):
            up = np.where(self._times[up] > s, self._par[up], up)
            if s < len(out):
                out[s] = up
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

    def cover(self, cut: Sequence[int] | np.ndarray) -> np.ndarray:
        """How many intervals of the cut's nodes cover each preorder position."""
        at, n = self._span[:, cut], self.n_nodes + 1
        return np.cumsum(np.bincount(at[0], minlength=n) - np.bincount(at[1], minlength=n))

    def levels(self, cut: Iterable[int]) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """Nodes strictly above ``cut`` by (time, arity), deepest first, each
        group as its nodes in ascending order and their children, one row per
        node; a backward induction takes one group at a time in array operations."""
        cut = list(cut)
        if self.leaf_index.keys() == set(cut):
            return self._levels
        above = self.cover(cut)[self._span[0]] == 0     # no cut node's interval covers the node
        return {key: (nodes[keep], kids[keep])
                for key, (nodes, kids) in self._levels.items() if (keep := above[nodes]).any()}

    def sum_up(self, values: np.ndarray, cut: Iterable[int] | None = None) -> np.ndarray:
        """Fill the rows of ``values`` (one per node, stacked columns allowed)
        above ``cut``, the leaves by default, with the sums of the cut's rows
        below them: one level group of :meth:`levels` at a time, each node the
        left-to-right sum of its children.  Returns ``values``."""
        for nodes, kids in (self._levels if cut is None else self.levels(cut)).values():
            acc = 0.0
            for col in kids.T:
                acc = acc + values[col]
            values[nodes] = acc
        return values

    def first_stops(self, top: int, stop: Callable[[int], bool]) -> list[int]:
        """The first node at or below ``top`` on each path where ``stop``
        holds, in preorder; ``stop`` is not asked below a node where it held."""
        out, i = [], self.enter[top]
        while i < self.exit[top]:
            v = self.preorder[i]
            if stop(v):
                out.append(v)
                i = self.exit[v]
            else:
                i += 1
        return out

    def product_down(self, kernel: np.ndarray) -> np.ndarray:
        """The mass that the one-step laws of the internal nodes, a row of
        ``kernel`` per node, carry from the root to every node: one level
        group of :meth:`levels` at a time, shallowest first, each child's mass
        its parent's times its weight; the mirror of :meth:`sum_up`."""
        mass = np.zeros(self.n_nodes)
        mass[self.root] = 1.0
        for nodes, kids in reversed(self._levels.values()):
            mass[kids] = mass[nodes, None] * kernel[nodes, :kids.shape[1]]
        return mass

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
        return StoppingTime(frozenset(map(int, nodes)))

    @staticmethod
    def at_root(tree: FiltrationTree) -> "StoppingTime":
        return StoppingTime(frozenset({tree.root}))

    @staticmethod
    def at_time(tree: FiltrationTree, t: int) -> "StoppingTime":
        return StoppingTime(frozenset(tree.nodes_at(t)))

    @staticmethod
    def at_horizon(tree: FiltrationTree) -> "StoppingTime":
        """The leaves, one object per tree, which
        :func:`validate_stopping_time` accepts without a check."""
        return tree._horizon_cut

    @functools.cached_property
    def index(self) -> np.ndarray:
        """The cut's nodes ascending, read-only: the order of a claim's values."""
        out = np.fromiter(self.cut, int, len(self.cut))
        out.sort()
        out.flags.writeable = False
        return out

    def sorted(self) -> tuple[int, ...]:
        return tuple(self.index.tolist())


def validate_stopping_time(tree: FiltrationTree, tau: StoppingTime) -> None:
    """Raise unless ``tau`` is a stopping time of ``tree``.  A cut that
    passed is marked in its ``__dict__`` (as ``cached_property`` stores
    ``index``) with the tree it passed on, and is not checked on it again.
    The tree's own horizon cut is accepted by identity and never marked:
    the tree holds it, so a mark would make the two a reference cycle."""
    if tau.__dict__.get("_valid_on") is tree or tau is tree._horizon_cut:
        return
    n = tree.n_nodes
    if tau.cut and not (0 <= min(tau.cut) and max(tau.cut) < n):
        v = next(v for v in tau.cut if not 0 <= v < n)
        raise ForeignNode(f"stopping time references node {v} outside the tree")
    # the root alone and the leaves are stopping times of every tree; else
    # count how often the path to each leaf meets the cut: once on a stopping time
    if tau.cut == {tree.root} or tau.cut == tree._horizon_cut.cut:
        tau.__dict__["_valid_on"] = tree
        return
    hits = tree.cover(tau.index)[tree._leaf_enter]
    if (hits == 1).all():
        tau.__dict__["_valid_on"] = tree
        return
    i = int((hits != 1).argmax())
    raise TcppError(f"path to leaf {tree.leaves[i]} meets the cut {hits[i]} times, expected 1")


def sigma_algebra_nodes(tree: FiltrationTree, tau: StoppingTime) -> frozenset[int]:
    """Atoms of the sigma-algebra at tau (the cut itself, once validated)."""
    validate_stopping_time(tree, tau)
    return tau.cut


def precedes(tree: FiltrationTree, nu: StoppingTime, tau: StoppingTime) -> bool:
    """nu <= tau nodewise: each tau node has an ancestor-or-self in nu."""
    return bool(tree.cover(nu.index)[tree._span[0][tau.index]].all())


class Claim:
    """F_tau-measurable payoff: one value per cut node, in numeraire units.

    The values are one read-only float array aligned with ``at.sorted()``,
    given as that array or as a mapping from the cut's nodes; ``values`` is
    their mapping view by node, of Python floats, built on first use.
    """

    # numpy scalars and arrays leave the arithmetic to the operators below
    __array_ufunc__ = None

    def __init__(self, at: StoppingTime, values: Mapping[int, float] | np.ndarray):
        n = len(at.cut)
        if isinstance(values, Mapping):
            if len(values) != n or not values.keys() >= at.cut:
                raise TcppError("claim values must be defined on exactly the cut nodes")
            array = np.fromiter(map(values.__getitem__, at.sorted()), float, n)
        else:
            array = np.array(values, dtype=float)
            if array.shape != (n,):
                raise TcppError(f"claim values must be one per cut node: {n}, "
                                f"got shape {array.shape}")
        array.flags.writeable = False
        self.at = at
        self.array = array

    @functools.cached_property
    def values(self) -> Mapping[int, float]:
        return MappingProxyType(dict(zip(self.at.sorted(), self.array.tolist())))

    @staticmethod
    def constant(tau: StoppingTime, c: float) -> "Claim":
        return Claim(tau, np.full(len(tau.cut), float(c)))

    def __getitem__(self, node: int) -> float:
        return self.values[node]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Claim):
            return NotImplemented
        return self.at == other.at and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"Claim({self.at.sorted()}, {self.array.tolist()})"

    def _operand(self, other) -> np.ndarray | float:
        if isinstance(other, Claim):
            if other.at != self.at:
                raise TcppError("claim addition requires a common stopping time")
            return other.array
        if isinstance(other, numbers.Real):
            return float(other)
        raise TcppError(f"a claim combines with a claim or a real number, "
                        f"not {type(other).__name__}")

    def __neg__(self) -> "Claim":
        return Claim(self.at, -self.array)

    def __add__(self, other: "Claim | float") -> "Claim":
        return Claim(self.at, self.array + self._operand(other))

    def __sub__(self, other: "Claim | float") -> "Claim":
        return Claim(self.at, self.array - self._operand(other))

    def __rmul__(self, scalar: float) -> "Claim":
        if not isinstance(scalar, numbers.Real):
            raise TcppError(f"a claim scales by a real number, not {type(scalar).__name__}")
        return Claim(self.at, float(scalar) * self.array)

    def allclose(self, other: "Claim", tol: float = 1e-9) -> bool:
        return self.at == other.at and bool((np.abs(self.array - other.array) <= tol).all())

    def max_abs_diff(self, other: "Claim") -> float:
        return float(np.abs(self.array - self._operand(other)).max())


class ClaimStack(Sequence):
    """Claims at one stopping time as the rows of one array, without an
    object per claim: ``array`` is ``(claims, len(at.cut))``, or
    ``(claims, m, len(at.cut))`` for a sequence of m-tuples of claims, its
    last axis aligned with ``at.sorted()``.  Item i is built on access; the
    checks that take a sequence of claims read the array itself."""

    def __init__(self, at: StoppingTime, array: np.ndarray):
        array = np.asarray(array, dtype=float)
        if array.ndim not in (2, 3) or array.shape[-1] != len(at.cut):
            raise TcppError(f"a claim stack at a cut of {len(at.cut)} nodes needs an array "
                            f"of shape (claims, [m,] {len(at.cut)}), got {array.shape}")
        self.at = at
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ClaimStack(self.at, self.array[i])
        row = self.array[i]
        return Claim(self.at, row) if row.ndim == 1 else tuple(Claim(self.at, r) for r in row)


def require_finite(values: Claim | Mapping[int, float] | Mapping[str, float],
                   what: str) -> None:
    """Raise naming the first value that is not finite by its node, or by
    its name for a string key."""
    if isinstance(values, Claim):
        if np.isfinite(values.array).all():
            return
        values = values.values      # by node, to name the first
    bad = sorted(v for v, x in values.items() if not math.isfinite(x))
    if bad:
        k, x = bad[0], values[bad[0]]
        raise TcppError(f"{what} {k} {x!r} is not finite" if isinstance(k, str)
                        else f"{what} {x!r} at node {k} is not finite")


def lift(tree: FiltrationTree, z: Claim, tau: StoppingTime) -> Claim:
    """Extend a claim at nu to a finer stopping time tau >= nu by copying down."""
    owner = tree.owner_index(z.at.index, tau.index)
    if (owner < 0).any():
        raise TcppError("can only lift a claim to a later stopping time")
    return Claim(tau, z.array[owner])


def lift_to_leaves(tree: FiltrationTree, x: Claim) -> np.ndarray:
    """Claim values spread to leaves, aligned with ``tree.leaves``."""
    return x.array[tree.owner_index(x.at.index, tree.leaves)]


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

    def node_masses(self, tree: FiltrationTree) -> np.ndarray:
        """The mass of every node, summed up from the leaves by
        :meth:`FiltrationTree.sum_up`."""
        mass = np.zeros(tree.n_nodes)
        mass[list(tree.leaves)] = self.leaf_masses(tree)
        return tree.sum_up(mass)

    @staticmethod
    def reference(tree: FiltrationTree) -> "Measure":
        return Measure({v: 1.0 for v in tree.leaves})

    @staticmethod
    def from_leaf_masses(tree: FiltrationTree, masses: Mapping[int, float] | np.ndarray) -> "Measure":
        if not isinstance(masses, Mapping):
            masses = {v: float(masses[i]) for i, v in enumerate(tree.leaves)}
        return Measure({v: masses[v] / tree.leaf_weights[v] for v in tree.leaves})


def stacked_conditional_expectation(tree: FiltrationTree, mass: np.ndarray,
                                    at: StoppingTime, values: np.ndarray) -> np.ndarray:
    """E(X | F_v) at every node v at or above the cut ``at``, for each column
    X of ``values`` (a row per node; only the cut's rows are read), under
    the node masses ``mass``: one bottom-up sum of X times the mass, divided
    by the mass, and NaN where the mass is not positive.  Rows below the
    cut carry no meaning."""
    num = np.zeros(values.shape)
    num[at.index] = values[at.index] * mass[at.index, None]
    tree.sum_up(num, at.cut)
    return np.divide(num, mass[:, None], out=np.full(num.shape, np.nan),
                     where=mass[:, None] > 0.0)


def conditional_expectation(tree: FiltrationTree, q: Measure, x: Claim,
                            sigma: StoppingTime) -> Claim:
    """E_Q(X | F_sigma) atomwise; NaN marks atoms of zero Q-mass.

    The NaN marker is deliberate: the identity only holds Q-almost surely,
    and silently substituting 0 would corrupt essential suprema downstream.
    """
    if not precedes(tree, sigma, x.at):
        raise TcppError("conditioning time must precede the claim's stopping time")
    values = np.zeros((tree.n_nodes, 1))
    values[x.at.index, 0] = x.array
    e = stacked_conditional_expectation(tree, q.node_masses(tree), x.at, values)
    return Claim(sigma, e[sigma.index, 0])


def essential_supremum(tree: FiltrationTree, claims: Sequence[Claim]) -> Claim:
    """Atomwise maximum of claims sharing one stopping time."""
    if not claims:
        raise TcppError("essential supremum of an empty family")
    at = claims[0].at
    for c in claims[1:]:
        if c.at != at:
            raise TcppError("essential supremum requires a common stopping time")
    return Claim(at, np.max([c.array for c in claims], axis=0))


def paste_measures(tree: FiltrationTree, q1: Measure, q2: Measure,
                   sigma: StoppingTime) -> Measure:
    """Measure equal to q1 on F_sigma and following q2's conditional law after.

    Raises :class:`MassMismatch` where q1 charges an atom on which q2's
    conditional law is undefined.
    """
    validate_stopping_time(tree, sigma)
    atom = sigma.index[tree.owner_index(sigma.index, tree.leaves)]     # per leaf
    m1, m2 = q1.node_masses(tree)[atom], q2.node_masses(tree)[atom]
    undefined = (m1 != 0.0) & (m2 == 0.0)
    if undefined.any():
        raise MassMismatch(f"future law undefined on atom {atom[undefined].min()} "
                           f"charged by the past measure")
    masses = np.divide(m1 * q2.leaf_masses(tree), m2, out=np.zeros(len(atom)),
                       where=m1 != 0.0)
    return Measure.from_leaf_masses(tree, masses)
