"""Scenario models: per-node menus of transition kernels with penalties.

A rectangular menu family is the computational form of a time-consistent
pricing procedure: each internal node carries a finite list of (kernel,
one-step penalty) entries chosen independently, which makes the family
stable under pasting and the penalty cocycle hold by construction.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EnumerationOverflow, TcppError
from .lp import EQ, LinearProgram, solve
from .report import CheckReport
from .settings import DEFAULT, Settings
from .tree import (Claim, FiltrationTree, Measure, StoppingTime, precedes,
                   validate_stopping_time)


@dataclass(frozen=True)
class MenuEntry:
    kernel: tuple[float, ...]
    penalty: float


@dataclass(frozen=True, eq=False)
class MenuTable:
    """Menus as flat arrays, in menu order: node ``nodes[i]`` lists
    ``sizes[i]`` entries, and entry e, counted over the nodes in turn, has
    the next ``arity[e]`` values of ``weights`` as its kernel and penalty
    ``penalties[e]``.  A market file's menus arrive in this form, without
    an object per entry."""

    nodes: list[int]
    sizes: np.ndarray
    arity: np.ndarray
    weights: np.ndarray
    penalties: np.ndarray

    @staticmethod
    def of(menus: Mapping[int, Sequence[MenuEntry]]) -> "MenuTable":
        entries = [e for m in menus.values() for e in m]
        return MenuTable(list(menus), np.array([len(m) for m in menus.values()], dtype=int),
                         np.array([len(e.kernel) for e in entries], dtype=int),
                         np.fromiter(itertools.chain.from_iterable(e.kernel for e in entries),
                                     float),
                         np.fromiter((e.penalty for e in entries), float, len(entries)))


class ScenarioModel:
    """Tree plus a nonempty menu of (kernel, penalty) entries per internal node.

    Kernels must be probability vectors over the node's children.  Penalties
    are expected to be nonnegative with a zero minimum at every node (the
    normalization that prices the zero claim at zero); violations are kept
    constructible so that the axiom checker can exhibit them as witnesses.

    The menus come as entries per node or as a :class:`MenuTable`; either
    way they are checked and packed as flat arrays, and ``menus`` is their
    view as entries, built on first use.  ``packed`` holds the menus per
    level group of ``tree.levels``: kernels ``(g, entries, arity)`` and
    penalties ``(g, entries)``, a short menu padded with copies of its
    first entry; ``menu_sizes`` has the lengths.
    """

    def __init__(self, tree: FiltrationTree,
                 menus: Mapping[int, Sequence[MenuEntry]] | MenuTable):
        self.tree = tree
        table = menus if isinstance(menus, MenuTable) else MenuTable.of(menus)
        internal = set(tree.internal_nodes())
        if set(table.nodes) != internal:
            missing = internal - set(table.nodes)
            extra = set(table.nodes) - internal
            raise TcppError(f"menus must cover exactly the internal nodes "
                            f"(missing {sorted(missing)}, extra {sorted(extra)})")
        n_kids = np.fromiter(map(len, tree.children), int, tree.n_nodes)
        wrong_arity = table.arity != np.repeat(n_kids[table.nodes], table.sizes)
        # the kernels as rows padded with zeros to the widest; a left-to-right
        # sum over a row is then the kernel's own sum, as zeros change none
        width = int(table.arity.max(initial=0))
        if len(table.weights) == len(table.arity) * width:      # every kernel that wide
            kernels = table.weights.reshape(len(table.arity), width)
        else:
            kernels = np.zeros((len(table.arity), width))
            kernels[np.arange(width) < table.arity[:, None]] = table.weights
        total = 0.0
        for col in kernels.T:
            total = total + col
        negative = (kernels < -1e-12).any(axis=1)
        ok = (~(wrong_arity | negative) & (np.abs(total - 1.0) <= 1e-9)
              & np.isfinite(table.penalties))
        node_start = np.cumsum(table.sizes) - table.sizes              # first entry of a node
        if not (ok.all() and table.sizes.all()):
            owner = np.repeat(np.arange(len(table.nodes)), table.sizes)    # position in nodes
            bad = (~ok).nonzero()[0]
            empty = (table.sizes == 0).nonzero()[0]
            if empty.size and (not bad.size or empty[0] < owner[bad[0]]):
                raise TcppError(f"empty menu at node {table.nodes[empty[0]]}")
            e = int(bad[0])
            node = table.nodes[owner[e]]
            idx = e - int(node_start[owner[e]])
            kernel = kernels[e, :table.arity[e]].tolist()
            if wrong_arity[e]:
                raise TcppError(f"kernel {idx} at node {node} has arity "
                                f"{len(kernel)}, expected {n_kids[node]}")
            if negative[e]:
                raise TcppError(f"kernel {idx} at node {node} has a negative weight")
            if not abs(sum(kernel) - 1.0) <= 1e-9:      # NaN and inf fail too
                raise TcppError(f"kernel {idx} at node {node} sums to {sum(kernel)!r}")
            raise TcppError(f"penalty {float(table.penalties[e])!r} of entry {idx} at "
                            f"node {node} is not finite")

        kernels = np.where(kernels > 0.0, kernels, 0.0)
        self._order = table.nodes
        self.menu_sizes = np.zeros(tree.n_nodes, dtype=int)
        self.menu_sizes[table.nodes] = table.sizes
        # every internal node's entries, level group after level group, a
        # short menu padded with its first entry; each group keeps its own width
        groups = tree.levels(tree.leaves)
        nodes = np.concatenate([g for g, _ in groups.values()])
        counts = [len(g) for g, _ in groups.values()]
        starts = np.cumsum(counts) - counts
        first = np.zeros(tree.n_nodes, dtype=int)
        first[table.nodes] = node_start
        size = self.menu_sizes[nodes, None]
        slot = np.arange(size.max())
        entry = first[nodes, None] + np.where(slot < size, slot, 0)
        widths = np.maximum.reduceat(size[:, 0], starts).tolist()
        self.packed: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for (t, k), a, g, w in zip(groups, starts.tolist(), counts, widths):
            rows = entry[a:a + g, :w]
            self.packed[t, k] = (kernels[rows, :k], table.penalties[rows])

    @functools.cached_property
    def _row(self) -> np.ndarray:
        """Each internal node's row in its level group's ``packed`` arrays."""
        row = np.zeros(self.tree.n_nodes, dtype=int)
        for nodes, _ in self.tree.levels(self.tree.leaves).values():
            row[nodes] = np.arange(len(nodes))
        return row

    @functools.cached_property
    def menus(self) -> dict[int, tuple[MenuEntry, ...]]:
        """The menus as entries per node, in menu order, from ``packed``."""
        out = {}
        for key, (nodes, _) in self.tree.levels(self.tree.leaves).items():
            kernels, penalties = self.packed[key]
            for v, size, ks, ps in zip(nodes.tolist(), self.menu_sizes[nodes].tolist(),
                                       kernels.tolist(), penalties.tolist()):
                out[v] = tuple(map(MenuEntry, map(tuple, ks[:size]), ps[:size]))
        return {v: out[v] for v in self._order}

    def steps(self, cut: Iterable[int], choice: Mapping[int, int] | None = None
              ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per level group of ``tree.levels(cut)``: its nodes, their children
        and their rows of ``packed``; with ``choice``, only the chosen entry's
        kernel ``(g, arity)`` and penalty ``(g,)``."""
        for key, (nodes, kids) in self.tree.levels(cut).items():
            kernels, penalties = self.packed[key]
            if choice is not None:
                rows = (self._row[nodes], [choice[v] for v in nodes.tolist()])
                kernels, penalties = kernels[rows], penalties[rows]
            elif len(nodes) < len(kernels):
                kernels, penalties = kernels[self._row[nodes]], penalties[self._row[nodes]]
            yield nodes, kids, kernels, penalties

    def normalization_findings(self) -> list[tuple[int, str]]:
        """Nodes whose menu penalties break the zero-at-minimum normalization."""
        out = []
        for node, entries in sorted(self.menus.items()):
            pens = [e.penalty for e in entries]
            if min(pens) < -1e-12:
                out.append((node, f"negative penalty {min(pens)!r}"))
            elif min(pens) > 1e-12:
                out.append((node, f"smallest penalty is {min(pens)!r}, expected 0"))
        return out

    def is_sublinear(self) -> bool:
        return all((penalties == 0.0).all() for _, penalties in self.packed.values())

    def selection_count(self) -> int:
        return math.prod(self.menu_sizes[self.menu_sizes > 0].tolist())

    @staticmethod
    def reference(tree: FiltrationTree) -> "ScenarioModel":
        """Model whose single menu entry at each node is P's own kernel."""
        menus = {v: [MenuEntry(tree.p_kernel(v), 0.0)] for v in tree.internal_nodes()}
        return ScenarioModel(tree, menus)


@dataclass(frozen=True)
class MeasureSelection:
    """One menu-entry index per internal node."""

    choice: tuple[tuple[int, int], ...]  # sorted (node, entry index) pairs

    @staticmethod
    def of(choice: Mapping[int, int]) -> "MeasureSelection":
        return MeasureSelection(tuple(sorted(choice.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.choice)


def _check_selection(model: ScenarioModel, sel: MeasureSelection) -> dict[int, int]:
    choice = sel.as_dict()
    for node in model.tree.internal_nodes():
        if node not in choice:
            raise TcppError(f"selection misses internal node {node}")
        if not 0 <= choice[node] < len(model.menus[node]):
            raise TcppError(f"selection index {choice[node]} out of range at node {node}")
    return choice


def enumerate_selections(model: ScenarioModel,
                         settings: Settings = DEFAULT) -> Iterator[MeasureSelection]:
    total = model.selection_count()
    if total > settings.max_enum:
        raise EnumerationOverflow(
            f"{total} selections exceed the configured cap {settings.max_enum}")
    nodes = sorted(model.menus)
    for idx in itertools.product(*(range(len(model.menus[v])) for v in nodes)):
        yield MeasureSelection.of(dict(zip(nodes, idx)))


def selection_to_measure(model: ScenarioModel, sel: MeasureSelection) -> Measure:
    """Density per leaf: product of chosen kernel weights along the path / P."""
    tree = model.tree
    choice = _check_selection(model, sel)
    mass = tree.forward_mass(tree.root, frozenset(tree.leaves),
                             lambda v: model.menus[v][choice[v]].kernel)
    return Measure({leaf: mass[leaf] / tree.leaf_weights[leaf] for leaf in tree.leaves})


def _one_step(values: np.ndarray, kids: np.ndarray, kernel: np.ndarray,
              penalty: np.ndarray) -> np.ndarray:
    """Penalty plus the kernel's expectation of the children's values: one
    operation for both sides of the cocycle, which then match bit for bit."""
    return penalty + np.einsum("gk,gk->g", kernel, values[kids])


def cumulative_penalties(model: ScenarioModel, sel: MeasureSelection,
                         tau: StoppingTime | None = None) -> dict[int, float]:
    """Expected sum of chosen one-step penalties from each node to tau.

    Defined through the chosen kernels themselves, so values exist even on
    atoms the selected measure does not charge.
    """
    tree = model.tree
    choice = _check_selection(model, sel)
    if tau is None:
        tau = StoppingTime.at_horizon(tree)
    else:
        validate_stopping_time(tree, tau)
    g = np.zeros(tree.n_nodes)
    for nodes, kids, kernel, penalty in model.steps(tau.cut, choice):
        g[nodes] = _one_step(g, kids, kernel, penalty)
    return dict(enumerate(g.tolist()))


def aggregate_penalty(model: ScenarioModel, sel: MeasureSelection,
                      nu: StoppingTime, tau: StoppingTime) -> Claim:
    """Penalty accumulated between two stopping times, as a claim at nu."""
    tree = model.tree
    if not precedes(tree, nu, tau):
        raise TcppError("aggregate_penalty requires nu <= tau")
    g = cumulative_penalties(model, sel, tau)
    return Claim(nu, {a: g[a] for a in nu.cut})


@dataclass(frozen=True)
class PenaltyProcess:
    """Cumulative penalty-to-horizon per node, for one selection."""

    selection: MeasureSelection
    values: Mapping[int, float]

    @staticmethod
    def from_selection(model: ScenarioModel, sel: MeasureSelection) -> "PenaltyProcess":
        return PenaltyProcess(sel, cumulative_penalties(model, sel))


def check_cocycle(penalty: PenaltyProcess, model: ScenarioModel,
                  tol: float = 1e-12) -> CheckReport:
    """Validate an externally supplied penalty process against the cocycle.

    The one-node refinements generate all stopping-time triples, so the
    report's findings point at the exact nodes where additivity breaks.
    ``info['deterministic_passed']`` records the weaker deterministic-time
    identity, which a process can satisfy while still failing at a random
    stopping time.
    """
    tree = model.tree
    choice = _check_selection(model, penalty.selection)
    vals = penalty.values
    report = CheckReport(check="cocycle", passed=True)
    missing = [v for v in range(tree.n_nodes) if v not in vals]
    if missing:
        raise TcppError(f"penalty process undefined on nodes {missing}")
    for leaf in tree.leaves:
        if abs(vals[leaf]) > tol:
            report.add(f"node {leaf}", f"horizon value {vals[leaf]!r} is not 0")
    given = np.array([vals[v] for v in range(tree.n_nodes)], dtype=float)
    steps = list(model.steps(tree.leaves, choice))
    expect = given.copy()
    for nodes, kids, kernel, pen in steps:
        expect[nodes] = _one_step(given, kids, kernel, pen)
    for node in np.flatnonzero(np.abs(given - expect) > tol).tolist():
        report.add(f"node {node}",
                   f"value {vals[node]:.12g} != one-step penalty + expected "
                   f"continuation {expect[node]:.12g}")

    # deterministic-time identity: supplied horizon cumulants joined by
    # model aggregates over (t0 -> t1) for every deterministic pair t0 < t1 < T.
    # For one t1, backward induction from the supplied values at t1 gives
    # the right-hand side at every earlier node at once.  Where every
    # one-step residual is exactly 0, each induction reproduces the supplied
    # values bit for bit (the same operation on the same numbers), so the
    # identity holds without the scan.
    def agrees_from(t1: int) -> bool:
        rhs = given.copy()
        for nodes, kids, kernel, pen in steps:
            if tree.times[nodes[0]] < t1:
                rhs[nodes] = _one_step(rhs, kids, kernel, pen)
        return not (np.abs(given - rhs) > max(tol, 1e-9)).any()

    det_ok = bool((expect == given).all()) or all(map(agrees_from, range(1, tree.horizon)))
    report.info["deterministic_passed"] = det_ok
    report.info["stopping_time_passed"] = report.passed
    return report


def subtree_duals(model: ScenarioModel, node: int, tau: StoppingTime,
                  settings: Settings = DEFAULT) -> list[tuple[dict[int, float], float]]:
    """All (conditional law on tau atoms, aggregated penalty) pairs below node.

    Enumerates menu choices on the subtree between ``node`` and ``tau``;
    the count is the product of menu sizes, capped by ``settings.max_enum``.
    """
    tree = model.tree
    order = tree.between(node, tau.cut)
    count: dict[int, int] = {}
    for v in order:
        if v in tau.cut:
            count[v] = 1
        else:
            count[v] = len(model.menus[v]) * math.prod(count[c] for c in tree.children[v])
    if count[node] > settings.max_enum:
        raise EnumerationOverflow(f"{count[node]} selections below node {node} "
                                  f"exceed the cap {settings.max_enum}")

    duals: dict[int, list[tuple[dict[int, float], float]]] = {}
    for v in order:
        if v in tau.cut:
            duals[v] = [({v: 1.0}, 0.0)]
            continue
        out = []
        child_lists = [duals.pop(c) for c in tree.children[v]]
        for entry in model.menus[v]:
            combos: list[tuple[dict[int, float], float]] = [({}, entry.penalty)]
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
        duals[v] = out
    return duals[node]


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


def minimal_penalty(model: ScenarioModel, r: Measure, sigma: StoppingTime,
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


def uniform_mixture(entries: Sequence[MenuEntry]) -> tuple[float, ...]:
    """Kernel of the equal-weight mixture of the entries' kernels."""
    return tuple(sum(col) / len(entries) for col in zip(*(e.kernel for e in entries)))


def uncharged_edges(model: ScenarioModel, family: Mapping[int, Sequence[MenuEntry]],
                    floor: float = 0.0) -> list[tuple[int, int]]:
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


def check_nondegenerate(model: ScenarioModel) -> CheckReport:
    """Pass iff every leaf is charged by at least one selection.

    A leaf dies exactly when some edge on its path gets zero weight from
    every menu entry at the edge's tail; each dead leaf is reported with the
    topmost such edge.
    """
    tree = model.tree
    report = CheckReport(check="non-degeneracy", passed=True)
    tail = {c: v for v, c in uncharged_edges(model, model.menus)}
    heads = list(tail)
    dead = [(leaf, tail[heads[i]], heads[i])
            for leaf, i in zip(tree.leaves, tree.owner_index(heads, tree.leaves).tolist())
            if i >= 0]
    for leaf, a, b in dead:
        report.add(f"leaf {leaf}",
                   f"every kernel at node {a} kills the edge to node {b}")
    report.info["dead_leaves"] = [leaf for leaf, _, _ in dead]
    return report
