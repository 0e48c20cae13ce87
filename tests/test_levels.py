"""The tree's level groups and the one backward induction over packed menus,
against the per-node inductions they replaced, on trees whose levels mix
arities and one-child nodes and whose node ids are shuffled."""
import itertools
import math

import numpy as np
import pytest

import oracles
from gen import (martingale_assets, random_irregular_tree, random_model,
                 random_tree, relabelled)
from tcpp.errors import TcppError
from tcpp.market import (AssetProcess, ConstraintSet, check_extends_dynamics,
                         constrained_price, mme_bounds)
from tcpp.pricing import backward_pass, random_stopping_time
from tcpp.scenario import (MeasureSelection, MenuEntry, ScenarioModel,
                           cumulative_penalties)
from tcpp.tree import Claim, FiltrationTree, StoppingTime


def instances(seed: int, count: int):
    """Regular and irregular trees, every third relabelled, with menus of
    1-3 entries, so one level group pads its short menus."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        tree = random_irregular_tree(rng) if i % 2 else random_tree(rng)
        if i % 3 == 2:
            tree = relabelled(tree, rng)
        yield rng, tree, random_model(rng, tree, max_entries=3)


def close(got, want, tol: float = 1e-12) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def test_levels_group_the_nodes_above_the_cut():
    seen = 0
    for rng, tree, _ in instances(1, 60):
        for cut in (tree.leaves, (tree.root,), random_stopping_time(tree, rng).cut):
            want = oracles.levels_by_walk(tree, cut)
            got = tree.levels(cut)
            assert list(got) == sorted(want, key=lambda tk: (-tk[0], tk[1]))
            for key, (nodes, kids) in got.items():
                assert nodes.tolist() == sorted(want[key])
                assert kids.tolist() == [list(tree.children[v]) for v in nodes.tolist()]
            seen += len({t for t, _ in want}) < len(want)    # a level mixes arities
    assert seen >= 10


def test_short_menus_are_padded_with_their_first_entry():
    for _, tree, model in instances(2, 30):
        for key, (nodes, _) in tree.levels(tree.leaves).items():
            kernels, penalties = model.packed[key]
            for i, v in enumerate(nodes.tolist()):
                menu = model.menus[v]
                assert model.menu_sizes[v] == len(menu)
                padded = list(menu) + [menu[0]] * (kernels.shape[1] - len(menu))
                assert kernels[i].tolist() == [list(e.kernel) for e in padded]
                assert penalties[i].tolist() == [e.penalty for e in padded]


def test_backward_pass_matches_the_per_node_induction():
    for rng, tree, model in instances(3, 80):
        for _ in range(3):
            at = random_stopping_time(tree, rng, stop_prob=float(rng.uniform(0.1, 0.6)))
            rows = {b: rng.uniform(-2.0, 2.0, 4) for b in at.cut}
            floor = {v: float(rng.uniform(-1.0, 1.0)) for v in range(tree.n_nodes)
                     if rng.random() < 0.5}
            values = np.full((tree.n_nodes, 4), np.nan)
            values[list(rows)] = list(rows.values())
            lower = np.full(tree.n_nodes, -np.inf)
            lower[list(floor)] = list(floor.values())
            for fl, fl_array in ((None, None), (floor, lower)):
                got = backward_pass(model, at, values, fl_array)
                want = oracles.backward_pass_per_node(model, at, rows, fl)
                assert got.shape == values.shape
                assert all(close(got[v], want[v]) for v in want)
                below = sorted(set(range(tree.n_nodes)) - set(want))
                assert np.isnan(got[below]).all()


def test_cumulative_penalties_match_the_per_node_induction():
    for rng, tree, model in instances(4, 80):
        sel = MeasureSelection.of({v: int(rng.integers(len(m)))
                                   for v, m in model.menus.items()})
        for tau in (None, random_stopping_time(tree, rng)):
            got = cumulative_penalties(model, sel, tau)
            want = oracles.cumulative_penalties_per_node(model, sel, tau)
            assert list(want) == list(range(tree.n_nodes))
            assert close(got.tolist(), list(want.values()))


def test_bounds_and_constrained_price_on_irregular_trees():
    rng = np.random.default_rng(5)
    for i in range(40):
        tree = random_irregular_tree(rng)
        d = 1 + i % 2
        assets = martingale_assets(rng, tree, d)
        x = Claim(StoppingTime.at_horizon(tree),
                  {b: float(rng.uniform(-1.0, 1.0)) for b in tree.leaves})
        got = mme_bounds(tree, assets, x)
        lo, hi, _ = oracles.mme_bounds_lp(tree, assets, x)
        assert close((got.lower, got.upper), (lo, hi)), (i, tuple(got), lo, hi)

        h_set = ConstraintSet(list(itertools.product((-1.0, 1.0), repeat=d)))
        at = random_stopping_time(tree, rng)
        y = Claim(at, {b: float(rng.uniform(-1.0, 2.0)) for b in at.cut})
        got = constrained_price(tree, assets, h_set, y).values[tree.root]
        want = oracles.constrained_price_lp(tree, assets, h_set, y).values[tree.root]
        assert close(got, want), (i, got, want)


def test_extends_findings_keep_their_order_and_text():
    rng = np.random.default_rng(6)
    tree = relabelled(random_irregular_tree(rng, max_periods=3), rng)
    model = random_model(rng, tree, max_entries=3)
    assets = [AssetProcess("S0", {v: float(rng.uniform(0.5, 2.0)) for v in range(tree.n_nodes)}),
              AssetProcess("flat", dict.fromkeys(range(tree.n_nodes), 1.0)),
              AssetProcess("S2", {v: float(rng.uniform(0.5, 2.0)) for v in range(tree.n_nodes)})]
    want = []
    for asset in assets:
        for node in tree.internal_nodes():
            s_now = asset.values[node]
            for idx, entry in enumerate(model.menus[node]):
                s_next = sum(entry.kernel[i] * asset.values[c]
                             for i, c in enumerate(tree.children[node]))
                if abs(s_next - s_now) > 1e-9 * (1.0 + abs(s_now)):
                    want.append((f"node {node} entry {idx}",
                                 f"asset {asset.name}: kernel expectation "
                                 f"{s_next:.12g} != {s_now:.12g}"))
    rep = check_extends_dynamics(model, assets, n_spot=0)
    assert [(f.where, f.message) for f in rep.findings] == want
    assert len(want) > 10 and not any("flat" in m for _, m in want)


FAULTS = {
    "empty": (None, "empty menu at node {node}"),
    "arity": (MenuEntry((1.0,), 0.0), "kernel 1 at node {node} has arity 1, expected 2"),
    "negative": (MenuEntry((1.5, -0.5), 0.0), "kernel 1 at node {node} has a negative weight"),
    "sum": (MenuEntry((0.5, 0.6), 0.0), "kernel 1 at node {node} sums to 1.1"),
    "nan": (MenuEntry((math.nan, 1.0), 0.0), "kernel 1 at node {node} sums to nan"),
    "penalty": (MenuEntry((0.5, 0.5), math.inf),
                "penalty inf of entry 1 at node {node} is not finite"),
}


@pytest.mark.parametrize("first, second", itertools.permutations(FAULTS, 2))
def test_model_errors_name_the_first_bad_entry_in_menu_order(first, second):
    # nodes 2 and 1 share a level group; the menus list node 2 first
    tree = FiltrationTree.binomial(2)
    good = MenuEntry((0.5, 0.5), 0.0)

    def menu(kind):
        entry = FAULTS[kind][0]
        return [] if entry is None else [good, entry, FAULTS[second][0] or good]

    menus = {2: menu(first), 0: [good], 1: menu(second)}
    with pytest.raises(TcppError) as exc:
        ScenarioModel(tree, menus)
    assert str(exc.value) == FAULTS[first][1].format(node=2)
