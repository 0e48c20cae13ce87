"""Seeded random instance generators shared across the test modules."""
from __future__ import annotations

import numpy as np

from tcpp.market import AssetProcess
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.tree import Claim, FiltrationTree, Measure, StoppingTime


def random_tree(rng: np.random.Generator, max_periods: int = 3,
                max_branch: int = 3) -> FiltrationTree:
    periods = int(rng.integers(1, max_periods + 1))
    branching = [int(rng.integers(2, max_branch + 1)) for _ in range(periods)]
    n_leaves = int(np.prod(branching))
    w = rng.dirichlet(np.full(n_leaves, 3.0))
    w = (w + 0.02) / (1.0 + 0.02 * n_leaves)
    return FiltrationTree.from_branching(branching, list(w))


def random_trinomial(rng: np.random.Generator, periods: int) -> FiltrationTree:
    """Trinomial tree of ``periods`` periods with random leaf weights."""
    n_leaves = 3 ** periods
    w = rng.dirichlet(np.full(n_leaves, 3.0))
    w = (w + 0.02) / (1.0 + 0.02 * n_leaves)
    return FiltrationTree.trinomial(periods, list(w))


def relabelled(tree: FiltrationTree, rng: np.random.Generator) -> FiltrationTree:
    """The same tree under shuffled node ids, so that id order, level order
    and preorder all disagree."""
    n = tree.n_nodes
    new = [int(i) for i in rng.permutation(n)]
    times, parents = [0] * n, [None] * n
    for v in range(n):
        times[new[v]] = tree.times[v]
        parents[new[v]] = None if tree.parents[v] is None else new[tree.parents[v]]
    return FiltrationTree(times, parents, {new[v]: w for v, w in tree.leaf_weights.items()})


def random_irregular_tree(rng: np.random.Generator, max_periods: int = 3,
                          max_branch: int = 4) -> FiltrationTree:
    """Arity 1 to ``max_branch`` drawn per node, so one level mixes arities
    and one-child nodes."""
    times, parents, level = [0], [None], [0]
    for t in range(int(rng.integers(1, max_periods + 1))):
        nxt = []
        for node in level:
            for _ in range(int(rng.integers(1, max_branch + 1))):
                times.append(t + 1)
                parents.append(node)
                nxt.append(len(times) - 1)
        level = nxt
    w = rng.dirichlet(np.full(len(level), 2.0))
    return FiltrationTree(times, parents, dict(zip(level, w / w.sum())))


def martingale_assets(rng: np.random.Generator, tree: FiltrationTree,
                      n_assets: int) -> list[AssetProcess]:
    """Assets that are martingales under one kernel near P at every node."""
    kernel = {v: 0.6 * np.array(tree.p_kernel(v))
              + 0.4 * rng.dirichlet(np.ones(len(tree.children[v])))
              for v in tree.internal_nodes()}
    assets = []
    for j in range(n_assets):
        vals = {b: float(rng.uniform(0.5, 2.0)) for b in tree.leaves}
        for v in tree.between(tree.root, frozenset(tree.leaves)):
            if tree.children[v]:
                vals[v] = float(kernel[v] @ [vals[c] for c in tree.children[v]])
        assets.append(AssetProcess(f"S{j}", vals))
    return assets


def random_model(rng: np.random.Generator, tree: FiltrationTree,
                 max_entries: int = 3, sublinear: bool = False,
                 include_reference: bool = False) -> ScenarioModel:
    menus = {}
    for v in tree.internal_nodes():
        k = len(tree.children[v])
        entries = []
        if include_reference:
            entries.append(MenuEntry(tree.p_kernel(v), 0.0))
        n = int(rng.integers(1, max_entries + 1))
        for i in range(n):
            ker = tuple(rng.dirichlet(np.full(k, 1.0)))
            pen = 0.0 if (not entries and i == 0) or sublinear else float(rng.exponential(0.2))
            entries.append(MenuEntry(ker, pen))
        menus[v] = entries
    return ScenarioModel(tree, menus)


def menu_mixture(rng: np.random.Generator, model: ScenarioModel) -> Measure:
    """An equivalent measure R whose kernel at each node is a Dirichlet
    mixture of that node's menu kernels, so inside their convex hull."""
    tree = model.tree
    mixed = np.zeros((tree.n_nodes, int(tree.arity.max())))
    for nodes, _, kernels, _ in model.steps(tree.leaves):
        for i, v in enumerate(nodes.tolist()):
            n = model.menu_sizes[v]
            mixed[v, :kernels.shape[2]] = rng.dirichlet(np.ones(n)) @ kernels[i, :n]
    return Measure.from_leaf_masses(tree, tree.product_down(mixed)[list(tree.leaves)])


def killed_leaf_model(rng: np.random.Generator, tree: FiltrationTree,
                      max_entries: int = 3) -> tuple[ScenarioModel, int]:
    """Model whose every menu entry at one node kills an edge, so the whole
    family gives zero mass to the leaves beyond it."""
    model = random_model(rng, tree, max_entries)
    leaf = int(rng.choice(tree.leaves))
    path = tree.path(leaf)
    edge = int(rng.integers(0, len(path) - 1))
    a, b = path[edge], path[edge + 1]
    i = tree.children[a].index(b)
    menus = dict(model.menus)
    fixed = []
    for e in menus[a]:
        ker = list(e.kernel)
        ker[i] = 0.0
        s = sum(ker)
        if s <= 0.0:
            ker = [0.0 if j == i else 1.0 / (len(ker) - 1) for j in range(len(ker))]
            s = 1.0
        fixed.append(MenuEntry(tuple(p / s for p in ker), e.penalty))
    menus[a] = fixed
    return ScenarioModel(tree, menus), leaf


def deep_chain_model() -> ScenarioModel:
    """Two branches of 1200 single-child periods each, deeper than Python's
    recursion limit; two entries at the root, P's kernel elsewhere."""
    tree = FiltrationTree.from_branching([2] + [1] * 1200)
    menus = {v: [MenuEntry(tree.p_kernel(v), 0.0)] for v in tree.internal_nodes()}
    menus[tree.root] = [MenuEntry((0.5, 0.5), 0.0), MenuEntry((0.8, 0.2), 0.1)]
    return ScenarioModel(tree, menus)


def random_claim(rng: np.random.Generator, tree: FiltrationTree,
                 at: StoppingTime | None = None, scale: float = 2.0) -> Claim:
    at = at if at is not None else StoppingTime.at_horizon(tree)
    return Claim(at, {b: float(rng.uniform(-scale, scale)) for b in at.cut})


def claim_pairs(rng: np.random.Generator, tree: FiltrationTree,
                n: int) -> list[tuple[Claim, Claim]]:
    return [(random_claim(rng, tree), random_claim(rng, tree)) for _ in range(n)]
