"""Scenario models: per-node menus of transition kernels with penalties.

A rectangular menu family is the computational form of a time-consistent
pricing procedure: each internal node carries a finite list of (kernel,
one-step penalty) entries chosen independently, which makes the family
stable under pasting and the penalty cocycle hold by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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


class ScenarioModel:
    """Tree plus a nonempty menu of (kernel, penalty) entries per internal node.

    Kernels must be probability vectors over the node's children.  Penalties
    are expected to be nonnegative with a zero minimum at every node (the
    normalization that prices the zero claim at zero); violations are kept
    constructible so that the axiom checker can exhibit them as witnesses.
    """

    def __init__(self, tree: FiltrationTree, menus: Mapping[int, Sequence[MenuEntry]]):
        self.tree = tree
        internal = set(tree.internal_nodes())
        if set(menus) != internal:
            missing = internal - set(menus)
            extra = set(menus) - internal
            raise TcppError(f"menus must cover exactly the internal nodes "
                            f"(missing {sorted(missing)}, extra {sorted(extra)})")
        cleaned: dict[int, tuple[MenuEntry, ...]] = {}
        for node, entries in menus.items():
            if not entries:
                raise TcppError(f"empty menu at node {node}")
            k = len(tree.children[node])
            out = []
            for idx, e in enumerate(entries):
                if len(e.kernel) != k:
                    raise TcppError(f"kernel {idx} at node {node} has arity "
                                    f"{len(e.kernel)}, expected {k}")
                if any(p < -1e-12 for p in e.kernel):
                    raise TcppError(f"kernel {idx} at node {node} has a negative weight")
                s = sum(e.kernel)
                if abs(s - 1.0) > 1e-9:
                    raise TcppError(f"kernel {idx} at node {node} sums to {s!r}")
                out.append(MenuEntry(tuple(max(0.0, float(p)) for p in e.kernel),
                                     float(e.penalty)))
            cleaned[node] = tuple(out)
        self.menus = cleaned

    def menu(self, node: int) -> tuple[MenuEntry, ...]:
        return self.menus[node]

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
        return all(e.penalty == 0.0 for m in self.menus.values() for e in m)

    def selection_count(self) -> int:
        n = 1
        for entries in self.menus.values():
            n *= len(entries)
        return n

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
    sizes = [len(model.menus[v]) for v in nodes]
    idx = [0] * len(nodes)
    while True:
        yield MeasureSelection.of(dict(zip(nodes, idx)))
        pos = len(nodes) - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < sizes[pos]:
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            return


def selection_to_measure(model: ScenarioModel, sel: MeasureSelection) -> Measure:
    """Density per leaf: product of chosen kernel weights along the path / P."""
    tree = model.tree
    choice = _check_selection(model, sel)
    mass = tree.forward_mass(tree.root, frozenset(tree.leaves),
                             lambda v: model.menus[v][choice[v]].kernel)
    return Measure({leaf: mass[leaf] / tree.leaf_weights[leaf] for leaf in tree.leaves})


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
    g = dict.fromkeys(range(tree.n_nodes), 0.0)
    for node in tree.between(tree.root, tau.cut):
        if node not in tau.cut:
            entry = model.menus[node][choice[node]]
            g[node] = entry.penalty + sum(
                entry.kernel[i] * g[c] for i, c in enumerate(tree.children[node]))
    return g


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
    for node in tree.internal_nodes():
        entry = model.menus[node][choice[node]]
        expect = entry.penalty + sum(
            entry.kernel[i] * vals[c] for i, c in enumerate(tree.children[node]))
        if abs(vals[node] - expect) > tol:
            report.add(f"node {node}",
                       f"value {vals[node]:.12g} != one-step penalty + expected "
                       f"continuation {expect:.12g}")

    # deterministic-time identity: supplied horizon cumulants joined by
    # model aggregates over (t0 -> t1) for every deterministic pair t0 < t1 < T.
    # For one t1, backward induction from the supplied values at t1 gives
    # the right-hand side at every earlier node at once.
    levels: list[list[int]] = [[] for _ in range(tree.horizon + 1)]
    for v in range(tree.n_nodes):
        levels[tree.times[v]].append(v)
    det_ok = True
    for t1 in range(1, tree.horizon):
        rhs = {b: vals[b] for b in levels[t1]}
        for t0 in range(t1 - 1, -1, -1):
            for v in levels[t0]:
                entry = model.menus[v][choice[v]]
                rhs[v] = entry.penalty + sum(
                    w * rhs[c] for w, c in zip(entry.kernel, tree.children[v]))
                if abs(vals[v] - rhs[v]) > max(tol, 1e-9):
                    det_ok = False
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


def minimal_penalty(model: ScenarioModel, r: Measure, sigma: StoppingTime,
                    tau: StoppingTime, settings: Settings = DEFAULT) -> Claim:
    """Convex conjugate of the pricing map at R, atom by atom.

    Values are in [0, +inf]; +inf marks atoms where R's conditional law
    falls outside the convex hull of the menu-generated laws, and NaN marks
    atoms R does not charge (the conjugate is an R-a.s. object).
    """
    tree = model.tree
    if not precedes(tree, sigma, tau):
        raise TcppError("minimal_penalty requires sigma <= tau")
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


def check_nondegenerate(model: ScenarioModel) -> CheckReport:
    """Pass iff every leaf is charged by at least one selection.

    A leaf dies exactly when some edge on its path gets zero weight from
    every menu entry at the edge's tail; the union of selection supports is
    then checkable edge by edge without enumeration.
    """
    tree = model.tree
    report = CheckReport(check="non-degeneracy", passed=True)
    dead = []
    for leaf in tree.leaves:
        path = tree.path(leaf)
        for a, b in zip(path, path[1:]):
            i = tree.children[a].index(b)
            if max(e.kernel[i] for e in model.menus[a]) <= 0.0:
                dead.append((leaf, a, b))
                break
    for leaf, a, b in dead:
        report.add(f"leaf {leaf}",
                   f"every kernel at node {a} kills the edge to node {b}")
    report.info["dead_leaves"] = [leaf for leaf, _, _ in dead]
    return report
