"""Calibrated bounds by column generation over the vertex kernels, against
the leaf-mass LP."""
import os

import numpy as np
import pytest

import tcpp.lp
import tcpp.market
from gen import martingale_assets, random_claim, random_irregular_tree, random_trinomial
from oracles import calibrated_bounds_lp
from tcpp.cli import main
from tcpp.errors import NoMartingaleMeasure
from tcpp.market import AssetProcess, QuotedOption, calibrated_bounds, mme_bounds
from tcpp.pricing import price
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.settings import DEFAULT
from tcpp.tree import Claim, FiltrationTree, StoppingTime

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
TRINOMIAL = os.path.join(DEMOS, "trinomial.market")
DIGITAL = os.path.join(DEMOS, "trinomial_digital.claim")

KINDS = ("inside", "disjoint", "dead", "killed")


def _market(rng, kind: str, irregular: bool = False):
    """A seeded trinomial market of 1-4 periods, 1-2 assets and 1-3 quotes,
    some maturing at inner cuts.  ``disjoint``: the first two quotes are one
    payoff with bands apart; ``dead``: one node below the root (the root on
    one period) whose assets rise on every child, so it has no martingale
    kernel; ``killed``: a node above the leaves whose assets stay on its
    first child and rise on the others, so its one kernel kills two edges.
    ``irregular``: a tree of 1-3 periods whose arities, 1 to 4, are drawn
    per node, so a level group of one time and arity may hold only the
    node without a kernel."""
    tree = random_irregular_tree(rng, 3, 4) if irregular else \
        random_trinomial(rng, int(rng.integers(1, 5)))
    assets = martingale_assets(rng, tree, int(rng.integers(1, 3)))
    if kind in ("dead", "killed"):
        inner = [v for v in tree.internal_nodes() if v != tree.root or tree.horizon == 1]
        node = inner[int(rng.integers(len(inner)))] if kind == "dead" else \
            tree.parents[tree.leaves[int(rng.integers(len(tree.leaves)))]]
        values = [dict(a.values) for a in assets]
        for vals in values:
            for i, c in enumerate(tree.children[node]):
                # move c's subtree so that S(c) = S(node) + rise, the moves below c kept
                rise = 0.0 if i == 0 and kind == "killed" else float(rng.uniform(0.1, 0.5))
                shift, todo = vals[node] + rise - vals[c], [c]
                while todo:
                    d = todo.pop()
                    vals[d] += shift
                    todo += tree.children[d]
        assets = [AssetProcess(a.name, vals) for a, vals in zip(assets, values)]
    quotes = []
    for i in range(int(rng.integers(2 if kind == "disjoint" else 1, 4))):
        at = StoppingTime.at_time(tree, int(rng.integers(1, tree.horizon + 1)))
        y = quotes[0].payoff if kind == "disjoint" and i == 1 else \
            Claim(at, {v: float(rng.uniform(0.0, 2.0)) for v in at.cut})
        if kind == "disjoint" and i == 1:
            bid = quotes[0].ask + float(rng.uniform(0.05, 0.3))
            ask = bid + float(rng.uniform(0.0, 0.2))
        else:
            bid, ask = sorted(rng.uniform(-0.2, 2.2, 2))
        quotes.append(QuotedOption(f"Q{i}", y, float(bid), float(ask)))
    return tree, assets, quotes


def _both(tree, assets, quotes, x):
    """The bounds and their leaf-mass LP oracle, or None for each that finds
    no martingale measure."""
    out = []
    for f in (calibrated_bounds, calibrated_bounds_lp):
        try:
            out.append(f(tree, assets, quotes, x))
        except NoMartingaleMeasure:
            out.append(None)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", KINDS)
def test_calibrated_bounds_agree_with_the_leaf_mass_lp(kind, seed):
    rng = np.random.default_rng(100 * KINDS.index(kind) + seed)
    tree, assets, quotes = _market(rng, kind)
    for _ in range(2):
        got, want = _both(tree, assets, quotes, random_claim(rng, tree))
        assert (got is None) == (want is None)
        if got is not None:
            assert all(type(v) is float for v in got)
            assert np.abs(np.subtract(got, want)).max() <= 1e-9, (got, want)


def test_the_instances_cover_dead_subtrees_below_a_live_root_and_a_dead_root():
    answered = {kind: set() for kind in KINDS}
    for kind in KINDS:
        for seed in range(10):
            rng = np.random.default_rng(100 * KINDS.index(kind) + seed)
            tree, assets, quotes = _market(rng, kind)
            try:
                calibrated_bounds(tree, assets, quotes, random_claim(rng, tree))
                answered[kind].add(True)
            except NoMartingaleMeasure:
                answered[kind].add(False)
    assert answered["dead"] == {True, False} and True in answered["killed"]
    assert answered["inside"] == answered["disjoint"] == {True}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(20))
def test_calibrated_bounds_on_irregular_trees_with_a_dead_node_agree_with_the_leaf_mass_lp(seed):
    rng = np.random.default_rng(500 + seed)
    tree, assets, quotes = _market(rng, "dead", irregular=True)
    for _ in range(2):
        got, want = _both(tree, assets, quotes, random_claim(rng, tree))
        assert (got is None) == (want is None)
        if got is not None:
            assert np.abs(np.subtract(got, want)).max() <= 1e-9, (got, want)


def _empty_groups(menus) -> list:
    """The level groups of the vertex-kernel menus whose nodes all lack a
    kernel: each node holds one zero kernel."""
    return [key for key, (kernels, _) in menus.packed.items() if not kernels.any()]


def test_the_irregular_instances_cover_a_level_group_without_a_kernel_below_a_live_root():
    groups = []
    for seed in range(20):
        tree, assets, _ = _market(np.random.default_rng(500 + seed), "dead", irregular=True)
        try:
            menus = tcpp.market._vertex_table(tree, assets, DEFAULT)
        except NoMartingaleMeasure:
            continue
        groups.append(len(_empty_groups(menus)))
    assert max(groups) >= 1 and min(groups) == 0


def _mixed_arity_market():
    # the root has children 1 (arity 2), 2 and 3 (arity 3); the asset rises
    # on both children of node 1, so the level group of time 1 and arity 2
    # has no martingale kernel, while the root charges only 2 and 3
    tree = FiltrationTree([0, 1, 1, 1] + [2] * 8, [None, 0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 3],
                          {b: 0.125 for b in range(4, 12)})
    vals = [1.0, 1.5, 0.5, 2.0, 1.7, 1.9, 1.0, 0.5, 0.25, 3.0, 2.0, 1.0]
    return tree, AssetProcess("S", dict(enumerate(vals)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_level_group_without_a_kernel_below_a_live_root_holds_zero_kernels():
    tree, s = _mixed_arity_market()
    menus = tcpp.market._vertex_table(tree, [s], DEFAULT)
    assert _empty_groups(menus) == [(1, 2)]       # node 1, one zero kernel
    assert menus.packed[1, 2][0].shape == (1, 1, 2) and menus.menu_sizes[1] == 1
    rng = np.random.default_rng(7)
    for n_quotes in (0, 1, 2, 2):
        quotes = [QuotedOption(f"Y{i}", random_claim(rng, tree), *sorted(rng.uniform(-1.0, 2.0, 2)))
                  for i in range(n_quotes)]
        got, want = _both(tree, [s], quotes, random_claim(rng, tree))
        assert np.abs(np.subtract(got, want)).max() <= 1e-9, (got, want)


def test_calibrated_bounds_on_a_wide_market_agree_with_the_leaf_mass_lp():
    # 12 children per node and 3 assets: vertices of 1 to 4 children, most
    # padded to rows of 4, out of 793 supports per node
    k = 12
    tree = FiltrationTree([0] + [1] * k + [2] * k * k,
                          [None] + [0] * k + [1 + i // k for i in range(k * k)],
                          {b: 1.0 / k ** 2 for b in range(1 + k, 1 + k + k * k)})
    rng = np.random.default_rng(11)
    assets = martingale_assets(rng, tree, 3)
    y = random_claim(rng, tree)
    quote = QuotedOption("Y", y, *sorted(rng.uniform(-0.5, 1.5, 2)))
    got, want = _both(tree, assets, [quote], random_claim(rng, tree))
    assert np.abs(np.subtract(got, want)).max() <= 1e-9, (got, want)


def _dead_child_market():
    # node 1's asset rises on every child, so it has no martingale kernel;
    # the root's kernel (0, 2/3, 1/3) avoids it, while the vertices on the
    # supports {1, 2} and {1, 3} charge it
    tree = FiltrationTree.trinomial(2)
    vals = {0: 1.0, 1: 2.0, 2: 1.25, 3: 0.5}
    for node in (1, 2, 3):
        for c, f in zip(tree.children[node], (1.5, 1.2, 1.1) if node == 1 else (2.0, 1.0, 0.5)):
            vals[c] = vals[node] * f
    return tree, AssetProcess("S", vals)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_vertex_that_charges_a_dead_child_is_excluded_by_its_support():
    tree, s = _dead_child_market()
    # -1 on every leaf, so every martingale measure prices it at -1; a node
    # without a kernel has no value, and a vertex that charged one would
    # read a value other than the -1 of every live child
    x = Claim(StoppingTime.at_horizon(tree), {b: -1.0 for b in tree.leaves})
    assert np.abs(np.add(calibrated_bounds(tree, [s], [], x), 1.0)).max() <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = random_claim(rng, tree)
        quote = QuotedOption("Y", y, *sorted(rng.uniform(-1.0, 1.0, 2)))
        got, want = _both(tree, [s], [quote], random_claim(rng, tree))
        assert np.abs(np.subtract(got, want)).max() <= 1e-9


def _grid_market():
    """The asset with factors 2, 1, 0.5 per period on the uniform trinomial
    tree of 5 periods, calls struck at 0.5, 1, 1.6 and 2.5 and a digital
    struck at 1, and the call at 1 quoted at the bid and ask of the model
    whose menus hold the martingale kernels (t, 1 - 3t, 2t) at t = 0.08 and
    0.24."""
    tree = FiltrationTree.trinomial(5)
    s = {tree.root: 1.0}
    for v in tree.internal_nodes():
        for c, f in zip(tree.children[v], (2.0, 1.0, 0.5)):
            s[c] = s[v] * f
    pay = {f"call:{k}": (lambda x, k=k: max(x - k, 0.0)) for k in (0.5, 1, 1.6, 2.5)}
    pay["digital:1"] = lambda x: float(x > 1.0)
    claims = {name: Claim(StoppingTime.at_horizon(tree), {b: f(s[b]) for b in tree.leaves})
              for name, f in pay.items()}
    ends = ScenarioModel(tree, {v: [MenuEntry((t, 1.0 - 3.0 * t, 2.0 * t), 0.0)
                                    for t in (0.08, 0.24)] for v in tree.internal_nodes()})
    root = StoppingTime.at_root(tree)
    call = claims["call:1"]
    quote = QuotedOption("C1", call, -price(ends, -call, root).values[tree.root],
                         price(ends, call, root).values[tree.root])
    return tree, AssetProcess("S", s), quote, claims


def test_calibrated_bounds_on_the_trinomial_h5_call_grid_agree_with_the_leaf_mass_lp():
    tree, s, quote, claims = _grid_market()
    for name, x in claims.items():
        got, want = _both(tree, [s], [quote], x)
        assert np.abs(np.subtract(got, want)).max() <= 1e-9, name
        b = mme_bounds(tree, [s], x)
        assert b.lower - 1e-12 <= got[0] <= got[1] <= b.upper + 1e-12


@pytest.mark.parametrize("seed", [9001, 9315])
@pytest.mark.parametrize("a, b", [(1e-6, 0.0), (1e4, 1e3)])
def test_calibrated_bounds_follow_a_change_of_units(seed, a, b):
    # X, every payoff and every band as a X + b: the bounds move alike; the
    # second seed's bracket stays open at a = 1e-6 when the master LP reads
    # the columns at their own size, below its absolute tolerances
    rng = np.random.default_rng(seed)
    tree, assets, quotes = _market(rng, KINDS[(seed - 9000) % len(KINDS)])
    x = random_claim(rng, tree)

    def moved(c):
        return Claim(c.at, {v: a * c.values[v] + b for v in c.at.cut})

    lo, hi = calibrated_bounds(tree, assets, quotes, x)
    got = calibrated_bounds(tree, assets, [QuotedOption(q.name, moved(q.payoff), a * q.bid + b,
                                                        a * q.ask + b) for q in quotes], moved(x))
    assert np.abs((np.subtract(got, b) / a - (lo, hi))).max() <= 1e-12 * (1.0 + abs(lo) + abs(hi))


def test_every_lp_of_calibrated_bounds_has_at_most_2k_plus_2_variables(monkeypatch):
    sizes = []

    def recording(lp, settings=tcpp.lp.DEFAULT):
        sizes.append((len(lp.objective), limit))
        return solve(lp, settings)

    solve = tcpp.lp.solve
    monkeypatch.setattr(tcpp.lp, "solve", recording)
    monkeypatch.setattr(tcpp.market, "solve", recording)
    for i, kind in enumerate(KINDS):
        for seed in range(10):
            rng = np.random.default_rng(100 * i + seed)
            tree, assets, quotes = _market(rng, kind)
            limit = 2 * len(quotes) + 2
            try:
                calibrated_bounds(tree, assets, quotes, random_claim(rng, tree))
            except NoMartingaleMeasure:
                pass
    assert sizes and all(n <= most for n, most in sizes)


def test_calibrated_bounds_over_the_support_cap_exit_two(monkeypatch, capsys):
    # the demo's root has 3 + 3 kernel supports, as in ``bounds --kind mme``
    monkeypatch.setenv("TCPP_MAX_ENUM", "5")
    for kind in ("mme", "calibrated"):
        assert main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL, "--kind", kind]) == 2
        assert "6 kernel supports per node at time 0 (arity 3) exceed the cap 5" \
            in capsys.readouterr().err


def test_a_bracket_still_open_after_the_round_cap_exits_two(monkeypatch, capsys):
    # the demo's quote needs a second round on each side
    monkeypatch.setattr(tcpp.market, "_ROUNDS", 1)
    assert main(["bounds", "--market", TRINOMIAL, "--claim", DIGITAL, "--kind", "calibrated"]) == 2
    err = capsys.readouterr().err
    assert "bracket" in err and "after 1 rounds (1 quotes, 4 nodes)" in err
