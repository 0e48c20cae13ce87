"""Answer checks for the benchmark, written without the library's solvers.

Each checker receives the exit code of one ``tcpp`` call (``None`` when an
exception escaped ``tcpp.cli.main``) and its machine output as a dict, and
returns ``None`` when the answer is right or a one-line reason when it is
not.  References are level-batched numpy recursions over the generated
markets, so they share no code with ``tcpp.pricing`` or ``tcpp.market``.
"""
from __future__ import annotations

import json
import os

import numpy as np

TOL = 1e-8


def parse_output(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            out[key] = value
    return out


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


class Levels:
    """A regular tree from ``FiltrationTree.from_branching`` cut into levels,
    with its menus packed as ``(nodes, entries, arity)`` arrays."""

    def __init__(self, tree, model=None):
        self.n = tree.n_nodes
        self.levels = []
        for t in range(tree.horizon):
            nodes = np.array(tree.nodes_at(t))
            children = np.array([tree.children[v] for v in nodes])
            kernels = penalties = None
            if model is not None:
                kernels = np.array([[e.kernel for e in model.menus[v]] for v in nodes])
                penalties = np.array([[e.penalty for e in model.menus[v]] for v in nodes])
            self.levels.append((nodes, children, kernels, penalties))
        self.leaves = np.array(tree.leaves)
        self.weights = np.array([tree.leaf_weights[v] for v in tree.leaves])

    def menu_max(self, leaf_values: np.ndarray, process: np.ndarray | None = None) -> np.ndarray:
        """Ask value at every node of a horizon claim (leaf values in
        ``tree.leaves`` order); with ``process``, the Snell envelope."""
        v = np.zeros(self.n)
        v[self.leaves] = leaf_values
        if process is not None:
            v[self.leaves] = process[self.leaves]
        for nodes, children, kernels, penalties in reversed(self.levels):
            cont = np.einsum("nek,nk->ne", kernels, v[children]) - penalties
            v[nodes] = cont.max(axis=1)
            if process is not None:
                v[nodes] = np.maximum(v[nodes], process[nodes])
        return v

    def node_masses(self, leaf_masses: np.ndarray) -> np.ndarray:
        m = np.zeros(self.n)
        m[self.leaves] = leaf_masses
        for nodes, children, _, _ in reversed(self.levels):
            m[nodes] = m[children].sum(axis=1)
        return m


def constrained_value(levels: Levels, asset: np.ndarray, vertices: np.ndarray,
                      leaf_values: np.ndarray) -> float:
    """Root value of the hedge-constrained recursion.  At each node the
    objective min_h [q.V - h (q.S - S_node)] is concave and piecewise linear
    in the kernel q, with its kinks where the drift q.S - S_node is zero, so
    the maximum sits on a simplex vertex or a zero-drift point of an edge."""
    v = np.zeros(levels.n)
    v[levels.leaves] = leaf_values
    for nodes, children, _, _ in reversed(levels.levels):
        k = children.shape[1]
        vals, drift = v[children], asset[children] - asset[nodes][:, None]
        cands = [np.eye(k)[i][None, :].repeat(len(nodes), 0) for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                di, dj = drift[:, i], drift[:, j]
                cross = di * dj < 0
                w = np.where(cross, dj / np.where(cross, dj - di, 1.0), 1.0)
                q = np.zeros((len(nodes), k))
                q[:, i], q[:, j] = w, 1.0 - w
                cands.append(q)
        best = np.full(len(nodes), -np.inf)
        for q in cands:
            qd = (q * drift).sum(axis=1)
            f = np.min([(q * vals).sum(axis=1) - h * qd for h in vertices[:, 0]], axis=0)
            best = np.maximum(best, f)
        v[nodes] = best
    return float(v[0])


def checks_pass(code, out) -> str | None:
    bad = sorted(k for k, val in out.items() if k.startswith("check.") and val != "pass")
    if code != 0:
        return f"exit {code}"
    if not any(k.startswith("check.") for k in out):
        return "no check records"
    return f"failed {bad}" if bad else None


def price_checker(ask: np.ndarray, bid: np.ndarray, cut: list[int]):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        for a in cut:
            try:
                got_b, got_a = float(out[f"bid.{a}"]), float(out[f"ask.{a}"])
            except KeyError:
                return f"no bid/ask for node {a}"
            if not (close(got_a, ask[a]) and close(got_b, bid[a])):
                return f"node {a}: got ({got_b!r}, {got_a!r}), want ({bid[a]!r}, {ask[a]!r})"
        return None
    return check


def american_checker(snell_root: float):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        got = float(out.get("value.0", "nan"))
        ind = float(out.get("induction.0", "nan"))
        if not (close(got, snell_root) and close(ind, snell_root)):
            return f"value {got!r}, induction {ind!r}, Snell {snell_root!r}"
        return None
    return check


def value_checker(want: float):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        got = float(out.get("value", "nan"))
        return None if close(got, want) else f"value {got!r}, want {want!r}"
    return check


class References:
    """Bound values recorded at the seed commit (``reference.json``)."""

    PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

    def __init__(self, path: str = PATH):
        with open(path, encoding="utf-8") as fh:
            self.values = json.load(fh)["bounds"]

    def get(self, shape: str, claim: str, kind: str) -> tuple[float, float]:
        lo, hi = self.values[f"{shape}/{claim}/{kind}"]
        return lo, hi


def bounds_checker(refs: References | None, shape: str, claim: str, kind: str,
                   outer: tuple[float, float] | None = None):
    """Match the recorded optimum; ``outer`` (the mme bounds) must nest it.
    Without a recorded value (a known-failure row) only nesting is checked."""
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        try:
            lo, hi = float(out["lower"]), float(out["upper"])
        except KeyError:
            return "no lower/upper"
        if lo > hi + TOL:
            return f"lower {lo!r} above upper {hi!r}"
        if outer is not None and (lo < outer[0] - TOL or hi > outer[1] + TOL):
            return f"[{lo!r}, {hi!r}] not inside mme {list(outer)}"
        if kind == "mme" and out.get("equivalent") != "true":
            return "no equivalent martingale measure reported"
        if refs is not None:
            want = refs.get(shape, claim, kind)
            if not (close(lo, want[0]) and close(hi, want[1])):
                return f"[{lo!r}, {hi!r}], recorded {list(want)}"
        return None
    return check


def _densities(levels: Levels, out) -> np.ndarray | str:
    try:
        return np.array([float(out[f"density.{v}"]) for v in levels.leaves])
    except KeyError:
        return "density missing for a leaf"


def calibrate_checker(levels: Levels, asset: np.ndarray, quotes):
    """Positive, normalized, a martingale for the asset, every quote in band."""
    def check(code, out):
        if code != 0 or out.get("calibration") != "feasible":
            return f"exit {code}, calibration {out.get('calibration')}"
        d = _densities(levels, out)
        if isinstance(d, str):
            return d
        mass = d * levels.weights
        if d.min() <= 0.0 or not close(mass.sum(), 1.0):
            return "density not positive or not normalized"
        m = levels.node_masses(mass)
        for nodes, children, _, _ in levels.levels:
            gap = (m[children] * asset[children]).sum(axis=1) - m[nodes] * asset[nodes]
            if np.abs(gap).max() > TOL:
                return f"not a martingale (gap {np.abs(gap).max():.2e})"
        for payoff, bid, ask in quotes:
            e = float(mass @ payoff)
            if not bid - TOL <= e <= ask + TOL:
                return f"quote priced at {e!r}, outside [{bid!r}, {ask!r}]"
        return None
    return check


def nfl_checker(levels: Levels, free_lunch: bool, probes: np.ndarray):
    """Verdict by construction; certificate validity.  A measure certificate
    must be equivalent and priced below the ask of every probe claim (the
    zero-penalty sandwich); a claim certificate must be a nonnegative,
    nonzero claim whose ask is not positive."""
    def check(code, out):
        verdict = out.get("verdict")
        if free_lunch:
            if code != 1 or verdict != "free-lunch":
                return f"exit {code}, verdict {verdict}, expected free-lunch"
            try:
                x = np.array([float(out[f"claim.{v}"]) for v in levels.leaves])
            except KeyError:
                return "claim certificate misses a leaf"
            if x.min() < -TOL or x.max() <= TOL:
                return "certificate claim is not nonnegative and nonzero"
            ask = levels.menu_max(x)[0]
            return None if ask <= TOL else f"certificate claim has ask {ask!r} > 0"
        if code != 0 or verdict != "no-free-lunch":
            return f"exit {code}, verdict {verdict}, expected no-free-lunch"
        d = _densities(levels, out)
        if isinstance(d, str):
            return d
        mass = d * levels.weights
        if d.min() <= 0.0 or not close(mass.sum(), 1.0):
            return "certificate measure not equivalent or not normalized"
        for x in probes:
            ask = levels.menu_max(x)[0]
            if mass @ x > ask + TOL:
                return f"certificate prices a claim at {mass @ x!r} above its ask {ask!r}"
        return None
    return check
