"""The vertex-kernel menus that serve every bound without caps (the
martingale bounds, calibration's edge test and R, and the calibrated
bounds) through one backward pass, against the per-level-group induction
they replaced, and the solves they make; the capped good-deal search over
stacked slice systems against the search per level group."""
import os
import struct
from unittest import mock

import numpy as np
import pytest

import tcpp.market
import tcpp.scenario
from gen import (martingale_assets, random_claim, random_irregular_tree, random_tree,
                 relabelled)
from oracles import good_deal_bounds_per_group, kernel_bounds_per_group
from test_calibration import KINDS as CALIBRATION_KINDS
from test_calibration import _market as calibration_market
from tcpp.errors import EmptyGoodDealSet, TcppError
from tcpp.market import (AssetProcess, GoodDealCaps, QuotedOption, calibrated_bounds,
                         calibration_feasible, good_deal_bounds, mme_bounds)
from tcpp.marketfile import parse_market_file
from tcpp.pricing import random_stopping_time
from tcpp.scenario import _kernel_max, _slice_batches, _support_batches
from tcpp.settings import DEFAULT, Settings
from tcpp.tree import Claim, FiltrationTree, StoppingTime, lift_to_leaves

SEEDS = range(240)
MARKETS = os.path.join(os.path.dirname(__file__), "markets")


def _shift(tree: FiltrationTree, values: dict, node: int, by: float) -> None:
    """Move the values of ``node``'s subtree by ``by``, the moves below it kept."""
    todo = [node]
    while todo:
        v = todo.pop()
        values[v] += by
        todo += tree.children[v]


def _market(seed: int):
    """Seeded market ``seed``: a random tree of 1-3 periods, regular or with
    arities 1-4 drawn per node (every fifth relabelled), and 1-3 assets.
    The first asset stays put on some children of two nodes (ties: children
    of equal moves, kernels on them alone).  By ``seed % 4``: nothing more;
    one node, possibly the root, whose assets rise on every child, so it has
    no martingale kernel; every node of one level group so; or both.  Every
    seventh market caps the supports at 8, which some level groups exceed.
    The claims: one at a random stopping time, a call on the first asset
    (zero on some leaves) and the zero claim."""
    rng = np.random.default_rng(seed)
    tree = random_irregular_tree(rng, 3, 4) if seed % 2 else random_tree(rng, 3, 4)
    if seed % 5 == 4:
        tree = relabelled(tree, rng)
    assets = martingale_assets(rng, tree, 1 + seed % 3)
    values = [dict(a.values) for a in assets]
    internal = tree.internal_nodes()
    for node in rng.choice(internal, size=min(2, len(internal)), replace=False).tolist():
        for c in tree.children[node][:int(rng.integers(1, len(tree.children[node]) + 1))]:
            _shift(tree, values[0], c, values[0][node] - values[0][c])
    dead = []
    if seed % 4 in (1, 3):
        dead.append(internal[int(rng.integers(len(internal)))])
    if seed % 4 in (2, 3):
        v = internal[int(rng.integers(len(internal)))]
        dead += [u for u in internal
                 if tree.times[u] == tree.times[v] and tree.arity[u] == tree.arity[v]]
    for node in dead:
        for vals in values:
            for c in tree.children[node]:
                _shift(tree, vals, c, vals[node] + float(rng.uniform(0.1, 0.5)) - vals[c])
    assets = [AssetProcess(a.name, vals) for a, vals in zip(assets, values)]
    s = values[0]
    strike = float(np.median([s[b] for b in tree.leaves]))
    claims = [random_claim(rng, tree, random_stopping_time(tree, rng)),
              Claim(StoppingTime.at_horizon(tree), {b: max(s[b] - strike, 0.0) for b in tree.leaves}),
              Claim.constant(StoppingTime.at_horizon(tree), 0.0)]
    settings = Settings(max_enum=8) if seed % 7 == 6 else DEFAULT
    return tree, assets, claims, settings


def _bits(run):
    """The outcome of ``run`` to the bit: its floats packed (so that -0.0 and
    0.0 differ), or the type and text of the error it raised."""
    try:
        out = run()
    except TcppError as exc:
        return type(exc).__name__, str(exc)
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in out)


def _mme(tree, assets, x, settings):
    b = mme_bounds(tree, assets, x, settings)
    return b.lower, b.upper, b.has_equivalent


def _outcome(run):
    """The outcome of ``run``: its values, or the type and text of the error it raised."""
    try:
        return run()
    except TcppError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", range(8))
def test_the_menus_give_the_per_group_induction_to_its_rounding(chunk):
    # the pass sums q . V where the per-group induction summed
    # (sqrt(p) V) . y0, so the bounds agree to the induction's rounding;
    # the errors and the edge test agree exactly, and the good-deal bounds
    # at an infinite cap are the martingale bounds' pass, to the bit
    for seed in SEEDS[chunk::8]:
        tree, assets, claims, settings = _market(seed)
        for x in claims:
            got = _outcome(lambda: _mme(tree, assets, x, settings))
            want = _outcome(lambda: kernel_bounds_per_group(tree, assets, x, settings))
            if isinstance(want[0], str):
                assert got == want, (seed, got, want)
            else:
                tol = tcpp.market._induction_rounding(tree, lift_to_leaves(tree, x)[:, None],
                                                      np.zeros(1))
                assert got[2] == want[2], seed
                assert np.abs(np.subtract(got[:2], want[:2])).max() <= tol, (seed, got, want)
            inf = GoodDealCaps.uniform(float("inf"))
            mme = _bits(lambda: _mme(tree, assets, x, settings))
            assert _bits(lambda: good_deal_bounds(tree, assets, inf, x, settings)) == \
                (mme if isinstance(mme[0], str) else mme[:2]), seed


def _empty_groups(menus) -> int:
    """The level groups of the vertex-kernel menus whose every node holds a zero kernel."""
    return sum(not kernels.any() for kernels, _ in menus.packed.values())


def test_the_instances_cover_both_verdicts_every_error_and_groups_without_a_kernel():
    seen = set()
    for seed in SEEDS:
        tree, assets, claims, settings = _market(seed)
        try:
            b = mme_bounds(tree, assets, claims[0], settings)
        except TcppError as exc:
            seen.add(type(exc).__name__)
            continue
        seen.add(b.has_equivalent)
        if _empty_groups(tcpp.market._vertex_table(tree, assets, settings)):
            seen.add("a level group without a kernel below a live root")
        if len(assets) == 3 and tree.arity.max() > 3:
            seen.add("3 assets")
    assert seen == {True, False, "NoMartingaleMeasure", "EnumerationOverflow", "3 assets",
                    "a level group without a kernel below a live root"}


@pytest.mark.parametrize("kind", CALIBRATION_KINDS)
def test_calibration_answers_as_with_the_per_group_edge_test(kind, monkeypatch):
    """Calibration reads the menus' edge test; with it taken from the
    per-group induction instead, on the seeded sets of ``test_calibration``,
    its verdicts and measures are the same."""
    for seed in range(8):
        tree, assets, quotes = calibration_market(
            np.random.default_rng(1000 * CALIBRATION_KINDS.index(kind) + seed), kind)
        got = calibration_feasible(tree, assets, quotes)
        zero = Claim.constant(StoppingTime.at_root(tree), 0.0)
        with monkeypatch.context() as m:
            m.setattr(tcpp.market, "_equivalent", lambda menus, settings: (
                kernel_bounds_per_group(tree, assets, zero, settings)[2]))
            want = calibration_feasible(tree, assets, quotes)
        assert got == want, (kind, seed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_upper_column_is_a_martingale_measure_that_prices_the_claim_at_its_value():
    # on the seeded markets, dead nodes included: the product of the pass's
    # argmax kernels, which charges no node without a kernel
    seen = set()
    for seed in SEEDS:
        tree, assets, claims, settings = _market(seed)
        try:
            menus = tcpp.market._vertex_table(tree, assets, settings)
        except TcppError:
            continue
        spot = tcpp.market._spot(tree, assets)
        leaves = list(tree.leaves)
        for x in claims[:2]:
            claim = lift_to_leaves(tree, x)
            value, masses = tcpp.market._upper_column(menus, claim)
            mass = np.zeros(tree.n_nodes)
            mass[leaves] = masses
            tcpp.market._check_martingale(tcpp.market._level_steps(tree, spot), spot,
                                          tree.sum_up(mass), settings)
            tol = tcpp.market._induction_rounding(tree, claim[:, None], np.zeros(1))
            assert abs(float(masses @ claim) - value) <= tol, (seed, masses @ claim, value)
        seen.add(any((~kernels.any(axis=(1, 2))).any() for kernels, _ in menus.packed.values()))
    assert seen == {True, False}      # with and without a node that holds the zero kernel


def test_the_bounds_without_caps_and_calibration_run_through_backward_pass(monkeypatch):
    calls = []
    backward_pass = tcpp.market.backward_pass
    monkeypatch.setattr(tcpp.market, "backward_pass",
                        lambda *args, **kwargs: calls.append(args[0])
                        or backward_pass(*args, **kwargs))
    tree, s, call, quote = _trinomial_call(3)
    md = parse_market_file(os.path.join(MARKETS, "steep_projection.market"))
    inf = GoodDealCaps.uniform(float("inf"))
    runs = {"mme": lambda: mme_bounds(tree, [s], call),
            "good-deal at an infinite cap": lambda: good_deal_bounds(tree, [s], inf, call),
            "calibrated": lambda: calibrated_bounds(tree, [s], [quote], call),
            # a point band that R misses: calibration's column generation
            "calibration": lambda: calibration_feasible(md.tree, md.assets, md.quotes)}
    for name, run in runs.items():
        calls.clear()
        assert run() is not None, name
        assert calls, name
    calls.clear()
    mme_bounds(tree, [s], call)
    assert len(calls) == 1


def _lattice_market(seed: int):
    """Seeded market ``seed`` for the capped search: a binomial or trinomial
    tree of 1-3 periods with random leaf weights, 1-3 assets, and on every
    third market one node whose assets rise on every child (no martingale
    kernel, so its parent's search meets a child without one); a claim at a
    random stopping time."""
    rng = np.random.default_rng(seed)
    periods = int(rng.integers(1, 4))
    w = rng.dirichlet(np.full((2 + seed % 2) ** periods, 3.0)) + 0.02
    tree = FiltrationTree.from_branching([2 + seed % 2] * periods, list(w / w.sum()))
    assets = martingale_assets(rng, tree, 1 + seed // 2 % 3)
    if seed % 3 == 2:
        node = int(rng.choice(tree.internal_nodes()))
        values = [dict(a.values) for a in assets]
        for vals in values:
            for c in tree.children[node]:
                _shift(tree, vals, c, vals[node] + float(rng.uniform(0.1, 0.5)) - vals[c])
        assets = [AssetProcess(a.name, vals) for a, vals in zip(assets, values)]
    return tree, assets, random_claim(rng, tree, random_stopping_time(tree, rng))


def _cap_sets(tree: FiltrationTree, rng: np.random.Generator) -> list[GoodDealCaps]:
    """Uniform caps from 1 (only the reference kernel) up, and per-node caps:
    finite on some nodes with an infinite default, and the reverse."""
    some = [int(v) for v in tree.internal_nodes() if rng.random() < 0.5]
    return [GoodDealCaps.uniform(a) for a in (1.0, 1.05, 1.3, 2.0)] + [
        GoodDealCaps(float("inf"), dict.fromkeys(some, float(rng.uniform(1.0, 1.5)))),
        GoodDealCaps(1.2, dict.fromkeys(some, float("inf")))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kept", [True, False], ids=["stacks kept", "solved per group"])
@pytest.mark.parametrize("chunk", range(4))
def test_the_stacked_capped_search_gives_the_per_group_search_bit_for_bit(chunk, kept,
                                                                          monkeypatch):
    # with no cells to keep a stack in, each level group solves its own
    # batches, as the per-group search does
    if not kept:
        monkeypatch.setattr(tcpp.market, "_CELLS", 0)
    slice_batches = mock.Mock(wraps=tcpp.market._slice_batches)
    monkeypatch.setattr(tcpp.market, "_slice_batches", slice_batches)
    markets = [_lattice_market(seed) for seed in range(chunk, 48, 4)]
    markets += [(tree, assets, claims[0], settings)
                for tree, assets, claims, settings in map(_market, SEEDS[chunk:80:4])]
    seen = set()
    for i, (tree, assets, x, *settings) in enumerate(markets):
        for caps in _cap_sets(tree, np.random.default_rng(i)):
            got = _bits(lambda: good_deal_bounds(tree, assets, caps, x, *settings))
            want = _bits(lambda: good_deal_bounds_per_group(tree, assets, caps, x, *settings))
            assert got == want, (chunk, i, got, want)
            seen.add(got[0] if isinstance(got[0], str) else "bounds")
    assert {"bounds", "EmptyGoodDealSet", "NoMartingaleMeasure"} <= seen
    assert slice_batches.called == kept


def test_the_search_over_solved_batches_gives_the_search_that_solves_them_bit_for_bit():
    # NaN and -inf objectives, finite and infinite caps, on batches solved
    # for a stack of the same nodes twice
    rng = np.random.default_rng(5)
    tree, assets, _ = _lattice_market(3)
    for nodes, kids, p, drift in tcpp.market._level_steps(tree, tcpp.market._spot(tree, assets)):
        g, k = kids.shape
        v = rng.normal(size=(2, g, k))
        v[0, 0, 0], v[1, -1, -1] = np.nan, -np.inf
        cap = rng.choice([1.0, 1.1, 1.5, np.inf], g)
        stack = list(_slice_batches(np.sqrt(np.concatenate([p, p])),
                                    np.concatenate([drift, drift]), k, 2 * g))
        for lo in (0, g):
            with np.errstate(invalid="ignore"):
                got = _kernel_max(p, drift, cap, v, k, DEFAULT,
                                  [sl.rows(lo, lo + g) for sl in stack])
                want = _kernel_max(p, drift, cap, v, k, DEFAULT)
            assert got.tobytes() == want.tobytes()


def _trinomial_call(periods: int):
    """The asset with factors 2, 1, 0.5 per period on the uniform trinomial
    tree, a call on it struck at 1, and a quote of the call."""
    tree = FiltrationTree.trinomial(periods)
    s = {tree.root: 1.0}
    for v in tree.internal_nodes():
        for c, f in zip(tree.children[v], (2.0, 1.0, 0.5)):
            s[c] = s[v] * f
    call = Claim(StoppingTime.at_horizon(tree), {b: max(s[b] - 1.0, 0.0) for b in tree.leaves})
    return tree, AssetProcess("S", s), call, QuotedOption("C", call, 0.4, 0.5)


def test_each_stack_of_supports_is_solved_once_per_batch(monkeypatch):
    # trinomial H=5 with one asset: 5 level groups of arity 3, 121 nodes and
    # supports of 1 or 2 children without a cap, one stack solved in one
    # batch per size; one search per level group solved the systems 10 times
    tree, s, call, quote = _trinomial_call(5)
    solves = []
    slice_systems = tcpp.scenario._slice_systems
    monkeypatch.setattr(tcpp.scenario, "_slice_systems",
                        lambda rp, drift: solves.append(rp.shape) or slice_systems(rp, drift))
    kernel_max = tcpp.market._kernel_max
    refuse = mock.Mock(side_effect=AssertionError("_kernel_max called"))
    monkeypatch.setattr(tcpp.scenario, "_kernel_max", refuse)
    monkeypatch.setattr(tcpp.market, "_kernel_max", refuse)
    batches = [(121, len(sup), sup.shape[1]) for sup in _support_batches(3, 2, 121)]
    assert batches == [(121, 3, 1), (121, 3, 2)]
    for run in (lambda: mme_bounds(tree, [s], call),
                lambda: good_deal_bounds(tree, [s], GoodDealCaps.uniform(float("inf")), call),
                lambda: calibrated_bounds(tree, [s], [quote], call),
                lambda: calibration_feasible(tree, [s], [quote])):
        solves.clear()
        run()
        assert solves == batches
    # at cap 1.5 the supports hold 1 to 3 children: the stack is solved in
    # one batch per size, and each level group's search reads its rows; a
    # search that solved its own made 15 solves
    searches = mock.Mock(wraps=kernel_max)
    monkeypatch.setattr(tcpp.market, "_kernel_max", searches)
    solves.clear()
    good_deal_bounds(tree, [s], GoodDealCaps.uniform(1.5), call)
    assert solves == [(121, 3, 1), (121, 3, 2), (121, 1, 3)] and searches.call_count == 5


def test_caps_that_empty_the_set_ask_the_table_whether_the_martingale_set_is_empty(monkeypatch):
    # one level group: one capped search, then the vertex kernels, no second induction
    tree, s, call, _ = _trinomial_call(1)
    calls = []
    kernel_max = tcpp.market._kernel_max
    monkeypatch.setattr(tcpp.market, "_kernel_max",
                        lambda *args: calls.append(args[4]) or kernel_max(*args))
    table = mock.Mock(wraps=tcpp.market._vertex_table)
    monkeypatch.setattr(tcpp.market, "_vertex_table", table)
    with pytest.raises(EmptyGoodDealSet, match="at node 0"):
        good_deal_bounds(tree, [s], GoodDealCaps.uniform(1.0), call)
    assert calls == [3] and table.call_count == 1
