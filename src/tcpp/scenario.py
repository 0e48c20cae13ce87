"""Scenario models: per-node menus of transition kernels with penalties.

A rectangular menu family is the computational form of a time-consistent
pricing procedure: each internal node carries a finite list of (kernel,
one-step penalty) entries chosen independently, which makes the family
stable under pasting and the penalty cocycle hold by construction.  So
penalties, measures and the minimal penalty all follow the level groups
of ``FiltrationTree.levels``, with no LP.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EnumerationOverflow, TcppError
from .report import CheckReport
from .settings import DEFAULT, RANK_TOL, Settings, pinned
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
        wrong_arity = table.arity != np.repeat(tree.arity[table.nodes], table.sizes)
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
                                f"{len(kernel)}, expected {tree.arity[node]}")
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
        self._row = np.zeros(tree.n_nodes, dtype=int)      # a node's row in its group
        self._row[nodes] = np.arange(len(nodes)) - np.repeat(starts, counts)
        self.packed: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for (t, k), a, g, w in zip(groups, starts.tolist(), counts, widths):
            rows = entry[a:a + g, :w]
            self.packed[t, k] = (kernels[rows, :k], table.penalties[rows])

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

    def steps(self, cut: Iterable[int], choice: np.ndarray | None = None
              ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per level group of ``tree.levels(cut)``: its nodes, their children
        and their rows of ``packed``; with ``choice`` (an entry per node), only
        the chosen entry's kernel ``(g, arity)`` and penalty ``(g,)``, and
        with a column of choices per selection, ``(g, selections, arity)``
        and ``(g, selections)``."""
        for key, (nodes, kids) in self.tree.levels(cut).items():
            kernels, penalties = self.packed[key]
            if choice is not None:
                rows = (self._row[nodes].reshape((-1,) + (1,) * (choice.ndim - 1)),
                        choice[nodes])
                kernels, penalties = kernels[rows], penalties[rows]
            elif len(nodes) < len(kernels):
                kernels, penalties = kernels[self._row[nodes]], penalties[self._row[nodes]]
            yield nodes, kids, kernels, penalties

    def mixture(self, max_penalty: float = math.inf) -> np.ndarray:
        """Each internal node's equal-weight mixture of its entries of penalty
        at most ``max_penalty``, as its row of a ``(n_nodes, widest arity)``
        array: kernels added in menu order, a zero row where none is kept."""
        out = np.zeros((self.tree.n_nodes, int(self.tree.arity.max())))
        for nodes, _, kernels, penalties in self.steps(self.tree.leaves):
            keep = (penalties <= max_penalty) & (np.arange(penalties.shape[1])
                                                 < self.menu_sizes[nodes, None])
            total = sum(np.where(keep[..., None], kernels, 0.0).swapaxes(0, 1))
            out[nodes, :kernels.shape[2]] = total / np.maximum(keep.sum(axis=1), 1)[:, None]
        return out

    def normalization_findings(self) -> list[tuple[int, str]]:
        """Nodes whose menu penalties break the zero-at-minimum normalization."""
        low = np.zeros(self.tree.n_nodes)
        for nodes, _, _, penalties in self.steps(self.tree.leaves):
            low[nodes] = penalties.min(axis=1)      # padding repeats an entry
        bad = np.flatnonzero(np.abs(low) > 1e-12).tolist()
        return [(v, f"negative penalty {p!r}" if p < -1e-12
                 else f"smallest penalty is {p!r}, expected 0")
                for v, p in zip(bad, low[bad].tolist())]

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


def _check_selection(model: ScenarioModel, sel: MeasureSelection) -> np.ndarray:
    """The entry index per node; keys of leaves or outside the tree are not read."""
    return _check_selections(model, [sel])[:, 0]


def _check_selections(model: ScenarioModel, sels: Sequence[MeasureSelection]) -> np.ndarray:
    """:func:`_check_selection` of every selection, a column each, in one
    scatter; the first selection that misses an internal node or names an
    entry out of range raises, naming its first such node."""
    n, sizes = model.tree.n_nodes, model.menu_sizes
    nodes, idx = np.array([p for sel in sels for p in sel.choice], dtype=int).reshape(-1, 2).T
    col = np.repeat(np.arange(len(sels)), [len(sel.choice) for sel in sels])
    keep = (nodes >= 0) & (nodes < n)
    choice, given = np.zeros((n, len(sels)), dtype=int), np.zeros((n, len(sels)), dtype=bool)
    at = (nodes[keep], col[keep])
    choice[at], given[at] = idx[keep], True
    bad = (sizes > 0)[:, None] & ~(given & (choice >= 0) & (choice < sizes[:, None]))
    for i in np.flatnonzero(bad.any(axis=0))[:1]:
        v = bad[:, i].argmax()
        raise TcppError(f"selection index {choice[v, i]} out of range at node {v}" if given[v, i]
                        else f"selection misses internal node {v}")
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
    kernel = np.zeros((tree.n_nodes, int(tree.arity.max())))
    for nodes, _, k, _ in model.steps(tree.leaves, _check_selection(model, sel)):
        kernel[nodes, :k.shape[1]] = k
    return Measure.from_leaf_masses(tree, tree.product_down(kernel)[list(tree.leaves)])


def _one_step(values: np.ndarray, kids: np.ndarray, kernel: np.ndarray,
              penalty: np.ndarray) -> np.ndarray:
    """Penalty plus the kernel's expectation of the children's values, a
    column per selection: ``values`` ``(nodes, c)``, ``kernel`` ``(g, c,
    arity)`` and ``penalty`` ``(g, c)``.  Each node and column is one dot
    product of contiguous rows, the same operation for one column or many
    and for both sides of the cocycle, which then match bit for bit."""
    g, c, k = kernel.shape
    ahead = np.ascontiguousarray(values[kids].transpose(0, 2, 1)).reshape(g * c, k)
    return penalty + np.einsum("gk,gk->g", kernel.reshape(g * c, k), ahead).reshape(g, c)


def cumulative_penalties(model: ScenarioModel, sel: MeasureSelection,
                         tau: StoppingTime | None = None) -> np.ndarray:
    """Expected sum of chosen one-step penalties from each node to tau.

    Defined through the chosen kernels themselves, so values exist even on
    atoms the selected measure does not charge.  The one-selection case of
    :func:`cumulative_penalties_batch`.
    """
    return cumulative_penalties_batch(model, [sel], tau)[:, 0]


def cumulative_penalties_batch(model: ScenarioModel, sels: Sequence[MeasureSelection],
                               tau: StoppingTime | None = None) -> np.ndarray:
    """:func:`cumulative_penalties` of every selection, a column each, from
    one induction over the level groups."""
    tree = model.tree
    choice = _check_selections(model, sels)
    if tau is None:
        tau = StoppingTime.at_horizon(tree)
    else:
        validate_stopping_time(tree, tau)
    g = np.zeros((tree.n_nodes, len(sels)))
    for nodes, kids, kernel, penalty in model.steps(tau.cut, choice):
        g[nodes] = _one_step(g, kids, kernel, penalty)
    return g


def aggregate_penalty(model: ScenarioModel, sel: MeasureSelection,
                      nu: StoppingTime, tau: StoppingTime) -> Claim:
    """Penalty accumulated between two stopping times, as a claim at nu."""
    tree = model.tree
    if not precedes(tree, nu, tau):
        raise TcppError("aggregate_penalty requires nu <= tau")
    return Claim(nu, cumulative_penalties(model, sel, tau)[nu.index])


@dataclass(frozen=True, eq=False)
class PenaltyProcess:
    """Cumulative penalty-to-horizon, a value per node, for one selection."""

    selection: MeasureSelection
    values: np.ndarray

    @staticmethod
    def from_selection(model: ScenarioModel, sel: MeasureSelection) -> "PenaltyProcess":
        return PenaltyProcess.from_selections(model, [sel])[0]

    @staticmethod
    def from_selections(model: ScenarioModel, sels: Sequence[MeasureSelection]
                        ) -> list["PenaltyProcess"]:
        """The process of each selection, all from one induction."""
        values = cumulative_penalties_batch(model, sels).T.copy()
        return [PenaltyProcess(sel, v) for sel, v in zip(sels, values)]


def check_cocycle(penalty: PenaltyProcess, model: ScenarioModel,
                  tol: float = 1e-12) -> CheckReport:
    """Validate an externally supplied penalty process against the cocycle.

    The one-node refinements generate all stopping-time triples, so the
    report's findings point at the exact nodes where additivity breaks.
    ``info['deterministic_passed']`` records the weaker deterministic-time
    identity, which a process can satisfy while still failing at a random
    stopping time.  The one-process case of :func:`check_cocycle_batch`.
    """
    return check_cocycle_batch([penalty], model, tol)[0]


def check_cocycle_batch(penalties: Sequence[PenaltyProcess], model: ScenarioModel,
                        tol: float = 1e-12) -> list[CheckReport]:
    """:func:`check_cocycle` of every process, a report each: every process
    is a column of one one-step induction, and the deterministic-time
    scans, where a process needs them, of one induction per time."""
    tree = model.tree
    given = np.empty((tree.n_nodes, len(penalties)))
    choice = _check_selections(model, [penalty.selection for penalty in penalties])
    for i, penalty in enumerate(penalties):
        if np.shape(penalty.values) != (tree.n_nodes,):
            raise TcppError(f"a penalty process needs {tree.n_nodes} values, "
                            f"got {np.shape(penalty.values)}")
        given[:, i] = penalty.values
    steps = list(model.steps(tree.leaves, choice))
    expect = given.copy()
    for nodes, kids, kernel, pen in steps:
        expect[nodes] = _one_step(given, kids, kernel, pen)

    # deterministic-time identity: supplied horizon cumulants joined by
    # model aggregates over (t0 -> t1) for every deterministic pair t0 < t1 < T.
    # For one t1, backward induction from the supplied values at t1 gives
    # the right-hand side at every earlier node at once.  Where every
    # one-step residual of a process is exactly 0, each induction reproduces
    # its supplied values bit for bit (the same operation on the same
    # numbers), so the identity holds without the scan.
    det_ok = np.ones(len(penalties), dtype=bool)
    scan = np.flatnonzero(~(expect == given).all(axis=0))
    if scan.size:
        for t1 in range(1, tree.horizon):
            rhs = given[:, scan]
            for nodes, kids, kernel, pen in steps:
                if tree.times[nodes[0]] < t1:
                    rhs[nodes] = _one_step(rhs, kids, kernel[:, scan], pen[:, scan])
            det_ok[scan] &= ~(np.abs(given[:, scan] - rhs) > max(tol, 1e-9)).any(axis=0)

    leaves = np.array(tree.leaves)
    reports = []
    for i in range(len(penalties)):
        report = CheckReport(check="cocycle", passed=True)
        for leaf in leaves[np.abs(given[leaves, i]) > tol].tolist():
            report.add(f"node {leaf}", f"horizon value {given[leaf, i].item()!r} is not 0")
        for node in np.flatnonzero(np.abs(given[:, i] - expect[:, i]) > tol).tolist():
            report.add(f"node {node}",
                       f"value {given[node, i]:.12g} != one-step penalty + expected "
                       f"continuation {expect[node, i]:.12g}")
        report.info["deterministic_passed"] = bool(det_ok[i])
        report.info["stopping_time_passed"] = report.passed
        reports.append(report)
    return reports


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


def minimal_penalty(model: ScenarioModel, r: Measure, sigma: StoppingTime,
                    tau: StoppingTime, settings: Settings = DEFAULT) -> Claim:
    """Convex conjugate of the pricing map at R, atom by atom.

    Menus chosen independently per node make penalties add up along the
    tree (the cocycle), so the conjugate between sigma and tau is E_R of the
    one-step conjugates at R's conditional kernels on the nodes from sigma
    down to tau, each weighted by R's mass and added to its sigma atom.
    The one-step conjugate at a kernel k, min sum_j l_j p_j over l >= 0,
    sum_j l_j = 1, sum_j l_j q_j = k, is :func:`_kernel_max` over the menu
    entries with drift q_j - k, no cap and objective -p.  The level groups
    of one menu width and arity are stacked, and each stack is searched by
    one call.  Its constraints have rank at most the arity (the kernels'
    weights sum to one), so supports of up to arity entries hold every
    vertex: the search solves sum_s C(entries, s) systems per node, which
    ``settings.max_enum`` caps, level group by level group, before any
    search; on menus beyond a handful of entries that is far more work than
    one LP per node.  Values are in [0, +inf]; +inf marks atoms below which
    one of R's conditional kernels falls outside the convex hull of the
    menu kernels, and NaN marks atoms R does not charge (the conjugate is
    an R-a.s. object).
    """
    tree, settings = model.tree, pinned(settings)
    validate_stopping_time(tree, sigma)
    validate_stopping_time(tree, tau)
    if not precedes(tree, sigma, tau):
        raise TcppError("minimal_penalty requires sigma <= tau")
    atoms = sigma.index
    owner = tree.owner_index(atoms, np.arange(tree.n_nodes))    # the sigma atom over a node
    mass = r.node_masses(tree)
    conj = np.zeros(tree.n_nodes)      # R-mass times the one-step conjugate
    # per (menu width, arity): the charged nodes, their masses, the drifts
    # of their entries and those entries' penalties, a part per level group
    stacks: dict[tuple[int, int], list[tuple[np.ndarray, ...]]] = {}
    for nodes, kids, kernels, penalties in model.steps(tau.cut):
        _, w, k = kernels.shape
        if k == 1:      # one child: every kernel is (1,), so the least penalty
            conj[nodes] = mass[nodes] * penalties.min(axis=1)
            continue
        keep = owner[nodes] >= 0
        if not keep.any():
            continue
        _cap_supports(w, min(w, k), settings, f"menu supports per node at time "
                      f"{tree.times[nodes[0]]} (arity {k}, {w} menu entries)")
        keep &= mass[nodes] > 0.0
        if keep.any():
            m = mass[nodes[keep]]
            drift = kernels[keep] - (mass[kids[keep]] / m[:, None])[:, None, :]
            stacks.setdefault((w, k), []).append((nodes[keep], m, drift, penalties[keep]))
    for (w, k), parts in stacks.items():
        nodes, m, drift, penalties = (np.concatenate(z) for z in zip(*parts))
        best = _kernel_max(np.ones(drift.shape[:2]), drift, np.full(len(m), np.inf),
                           -penalties[None], min(w, k), settings)[0]
        conj[nodes] = m * -best
    inside = owner >= 0
    total = np.bincount(owner[inside], conj[inside], len(atoms))
    charged = mass[atoms] > 0.0
    out = np.full(len(atoms), np.nan)
    out[charged] = np.maximum(0.0, total[charged] / mass[atoms[charged]])
    return Claim(sigma, out)


def _cap_supports(n: int, size: int, settings: Settings, what: str) -> None:
    """Raise :class:`EnumerationOverflow` before a search over the supports
    of 1 to ``size`` of ``n`` columns when they outnumber ``settings.max_enum``;
    ``what`` names the supports per node."""
    count = sum(math.comb(n, s) for s in range(1, size + 1))
    if count > settings.max_enum:
        raise EnumerationOverflow(f"{count} {what} exceed the cap {settings.max_enum}")


# linear systems solved per stacked batch here and in ``market``; bounds the
# working memory
_BATCH = 1 << 16

# node x column cells of one stacked backward pass of ``pricing.check_axioms``
# (16 MiB of float64); a wider stack is priced in chunks of samples
_CELLS = 1 << 21

# cells of the dense tableau of one ``lp.solve``, (rows + 1) x (columns +
# rows + 1), counted from the program's size before anything is allocated
# (256 MiB of float64), the cap too of check-tcpp's samples x 2 x leaves
# draws; a larger LP raises EnumerationOverflow.  The library solves masters
# over a few columns; the largest LP of the tests, a leaf-mass calibration
# oracle's of 492 rows and 244 columns, counts 2.8 MiB
_TABLEAU_CELLS = 1 << 25


def _kernel_max(p: np.ndarray, drift: np.ndarray, cap: np.ndarray, v: np.ndarray,
                size: int, settings: Settings,
                batches: Iterable[_Slices] | None = None) -> np.ndarray:
    """Max of q . v[i, g] over the kernels of K_g giving no weight to children
    with v[i, g] = -inf, for a stack of nodes g and objectives i; -inf where
    there is none: K_g = {q >= 0, sum q = 1, q . drift[g] = 0,
    sum q^2/p[g] <= cap[g]^2}, as in ``market.good_deal_bounds``.

    In y = q / sqrt(p), K_g is a slice of the nonnegative orthant in the ball
    of radius cap.  An optimum charging exactly the children T is optimal on
    T's slice {A_T y = e_1} in the ball: the least-norm point y0 plus the
    objective projected on the slice, scaled to the sphere (Cerny-Hodges;
    Cochrane-Saa-Requejo), or y0 without a cap or projection.  Supports of
    up to ``size`` children are tried (a vertex has at most one more than
    the assets); a candidate counts if it solves its system and is
    nonnegative and within the cap to the feasibility tolerance.  The
    systems depend on p and the drift alone: ``batches`` are those of
    :func:`_slice_batches` for these nodes, solved already (the stacks of
    ``market.good_deal_bounds``); without them each batch is solved here,
    for ``m * g`` systems per support (a level group of a capped stack too
    large to keep, a stack of :func:`minimal_penalty`'s level groups of one
    menu width and arity, and the oracles of the tests)."""
    m, g, k = v.shape
    root_p, live = np.sqrt(p), ~np.isinf(v)
    w, cap2 = root_p * np.where(live, v, 0.0), cap ** 2
    if batches is None:
        batches = _slice_batches(root_p, drift, size, m * g)
    best = np.full((m, g), -np.inf)
    # map holds no batch while it solves the next one
    for part in map(functools.partial(_batch_max, w=w, live=live, cap2=cap2,
                                      settings=settings), batches):
        best = np.maximum(best, part)
    return best


def _batch_max(sl: _Slices, w: np.ndarray, live: np.ndarray, cap2: np.ndarray,
               settings: Settings) -> np.ndarray:
    """The search of :func:`_kernel_max` over the supports of one batch
    ``sl``, for the objectives ``w`` = sqrt(p) v (zero where v = -inf) and
    the squared caps ``cap2``."""
    room = np.where(np.isfinite(cap2), cap2, 0.0)[:, None]
    ws = w[:, :, sl.sup]
    r = ws - np.einsum("gcst,igct->igcs", sl.proj, ws)
    rn = np.linalg.norm(r, axis=-1)
    step = np.sqrt(np.maximum(room - sl.norm, 0.0))
    step = np.divide(step, rn, out=np.zeros_like(rn),
                     where=rn > RANK_TOL * (1.0 + np.abs(ws).sum(-1)))
    y = sl.y0 + step[..., None] * r
    ok = (live[:, :, sl.sup].all(-1) & _on_slice(sl, y, settings)
          & ((y ** 2).sum(-1) <= cap2[:, None] * (1.0 + settings.feasibility_tol)))
    return np.where(ok, (ws * y).sum(-1), -np.inf).max(-1)


def _vertex_kernels(p: np.ndarray, drift: np.ndarray, size: int, settings: Settings
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidates of :func:`_kernel_max` without a cap, which hold every
    vertex of K_g = {q >= 0, sum q = 1, q . drift[g] = 0} and do not depend on
    any objective: per node g and support T of up to ``size`` children, the
    least-norm kernel charging only T.  Returns those in K_g to the
    feasibility tolerance, sorted by node: their nodes, their supports as
    rows of ``size`` distinct children whose first s are the support's s
    (the rest pad it with the first others), those counts s, and the
    least-norm points y0 = q / sqrt(p) on the rows, zero on the padding.
    The rest are dropped batch by batch, so memory grows with the vertices
    found, not the supports."""
    g, k = p.shape
    out = [(np.zeros(0, dtype=np.intp), np.zeros((0, size), dtype=np.intp),
            np.zeros(0, dtype=np.intp), np.zeros((0, size)))]
    for sl in _slice_batches(np.sqrt(p), drift, size, g, project=False):
        node, i = np.nonzero(_on_slice(sl, sl.y0[None], settings)[0])
        s = sl.sup.shape[1]
        rows, points = sl.sup[i], np.zeros((len(i), size))
        points[:, :s] = sl.y0[node, i]
        if s < size:
            member = np.zeros((len(i), k), dtype=bool)
            member[np.arange(len(i))[:, None], rows] = True
            rows = np.concatenate([rows, np.argsort(member, axis=1, kind="stable")[:, :size - s]], 1)
        out.append((node, rows, np.full(len(i), s), points))
    node, rows, width, points = (np.concatenate(z) for z in zip(*out))
    order = np.argsort(node, kind="stable")
    return node[order], rows[order], width[order], points[order]


def _support_batches(k: int, size: int, stack: int) -> Iterator[np.ndarray]:
    """The supports of 1 to ``size`` of ``k`` children, as index rows of one
    size per batch, in batches that keep ``stack`` systems per support within
    ``_BATCH`` in all."""
    step = max(1, _BATCH // stack)
    for s in range(1, size + 1):
        sups = np.array(list(itertools.combinations(range(k), s)))
        for lo in range(0, len(sups), step):
            yield sups[lo:lo + step]


class _Slices(NamedTuple):
    """The slice systems of one support batch for a stack of nodes g: the
    supports ``sup`` (c, s), sqrt(p) on them ``rp`` (g, c, s), the systems
    ``a`` (g, c, assets + 1, s), the projections Q^T Q onto their row
    spaces ``proj`` (g, c, s, s), the least-norm points ``y0`` (g, c, s) and
    their squared norms ``norm``, and the scale 1 + max |a| of
    :func:`_on_slice`'s residual test (g, c)."""

    sup: np.ndarray
    rp: np.ndarray
    a: np.ndarray
    proj: np.ndarray | None
    y0: np.ndarray
    norm: np.ndarray | None
    scale: np.ndarray

    def rows(self, lo: int, hi: int) -> "_Slices":
        """The systems of nodes lo to hi of the stack."""
        return _Slices(self.sup, *(None if z is None else z[lo:hi] for z in self[1:]))


def _slice_cells(k: int, size: int, n_rows: int) -> int:
    """Numbers that :func:`_slice_batches` holds per node over all its
    batches, for ``k`` children, supports of 1 to ``size`` of them and
    systems of ``n_rows`` rows: a, proj, y0, rp, norm and scale."""
    return sum(math.comb(k, s) * (s * (n_rows + s + 2) + 2) for s in range(1, size + 1))


def _slice_batches(root_p: np.ndarray, drift: np.ndarray, size: int, stack: int,
                   project: bool = True) -> Iterator[_Slices]:
    """The :class:`_Slices` of the nodes of ``root_p`` (sqrt(p), a row per
    node) and ``drift``, one per batch of :func:`_support_batches` for
    ``stack`` systems per support; without ``project`` (no objective to
    project), ``proj`` and ``norm`` are None."""
    for sup in _support_batches(root_p.shape[1], size, stack):
        yield _slices(root_p, drift, sup, project)


def _slices(root_p: np.ndarray, drift: np.ndarray, sup: np.ndarray, project: bool) -> _Slices:
    """The :class:`_Slices` of one batch of supports ``sup``."""
    rp = root_p[:, sup]
    a, q, y0 = _slice_systems(rp, drift[:, sup])
    return _Slices(sup, rp, a, np.einsum("rgcs,rgct->gcst", q, q) if project else None, y0,
                   (y0 ** 2).sum(-1) if project else None, 1.0 + np.abs(a).max((-2, -1)))


def _slice_systems(rp: np.ndarray, drift: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node g and support of a batch, with ``rp`` the square roots of
    the reference weights on the support and ``drift`` the children's moves:
    the system A_T y = e_1 (sum q = 1, q . drift = 0 in y = q / sqrt(p)),
    an orthonormal basis Q of its row space (assets + 1, g, c, s), a row per
    row of A, and its least-norm solution y0.

    One modified Gram-Schmidt over the rows of every system at once: a row
    whose residual is at most ``RANK_TOL`` times its own norm is dropped
    (its row of Q is zero, and nothing divides by its norm), so Q^T Q is
    the projection onto the row space at any rank.  y0 = Q^T w, with w by
    forward substitution on the kept rows (A y0 = e_1 there), lies in the
    row space: wherever the system is consistent it is the least-norm
    solution pinv(A) e_1."""
    rows = np.concatenate([rp[None], np.moveaxis(drift, -1, 0) * rp])
    q = rows.copy()
    floor = RANK_TOL ** 2 * _dot(rows, rows)
    for i, v in enumerate(q):
        n2 = _dot(v, v)
        inv = np.sqrt(np.divide(1.0, n2, out=np.zeros_like(n2), where=n2 > floor[i]))
        v *= inv
        y0 = v * inv if i == 0 else y0 - _dot(rows[i], y0) * inv * v
        q[i + 1:] -= _dot(v, q[i + 1:]) * v
    return np.ascontiguousarray(rows.transpose(1, 2, 0, 3)), q, y0


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis, kept as an axis of length one."""
    return (x * y).sum(-1, keepdims=True)


def _on_slice(sl: _Slices, y: np.ndarray, settings: Settings) -> np.ndarray:
    """Whether points y (one per objective, node and support of ``sl``) give
    kernels sqrt(p) y that are nonnegative and solve their systems to the
    feasibility tolerance, which its callers' number functions pin."""
    tol = settings.feasibility_tol
    res = np.einsum("gcrs,igcs->igcr", sl.a, y) - np.eye(sl.a.shape[2])[0]
    return (sl.rp * y >= -tol).all(-1) & (np.abs(res).max(-1) <= tol * sl.scale)


def uncharged_edges(model: ScenarioModel, mixture: np.ndarray,
                    floor: float = 0.0) -> list[tuple[int, int]]:
    """Edges (v, c), in preorder of v, to which v's row of ``mixture`` (of
    :meth:`ScenarioModel.mixture`) gives weight at most ``floor``.

    With ``floor`` 0 and the mixtures of a family of entries, a leaf is
    charged by some selection of family entries exactly when no edge on its
    path is listed, so the union of selection supports is decided edge by
    edge without enumeration.
    """
    tree = model.tree
    weight, parent = np.full(tree.n_nodes, np.inf), np.zeros(tree.n_nodes, dtype=int)
    for nodes, kids in tree.levels(tree.leaves).values():     # per edge, by its head
        weight[kids], parent[kids] = mixture[nodes, :kids.shape[1]], nodes[:, None]
    heads, enter = np.flatnonzero(weight <= floor), np.asarray(tree.enter)
    heads = heads[np.lexsort((enter[heads], enter[parent[heads]]))]
    return list(zip(parent[heads].tolist(), heads.tolist()))


def check_nondegenerate(model: ScenarioModel) -> CheckReport:
    """Pass iff every leaf is charged by at least one selection.

    A leaf dies exactly when some edge on its path gets zero weight from
    every menu entry at the edge's tail; each dead leaf is reported with the
    topmost such edge.
    """
    tree = model.tree
    report = CheckReport(check="non-degeneracy", passed=True)
    edges = uncharged_edges(model, model.mixture())
    owner = tree.owner_index([c for _, c in edges], tree.leaves).tolist()
    dead = [(leaf, *edges[i]) for leaf, i in zip(tree.leaves, owner) if i >= 0]
    for leaf, a, b in dead:
        report.add(f"leaf {leaf}",
                   f"every kernel at node {a} kills the edge to node {b}")
    report.info["dead_leaves"] = [leaf for leaf, _, _ in dead]
    return report
