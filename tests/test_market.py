"""Market operations: dynamics, bounds, calibration, good deals, constraints."""
import itertools

import numpy as np
import pytest

from gen import (random_claim, random_irregular_tree, random_model, random_tree,
                 relabelled)
from oracles import binomial_constrained_oracle, price_enumerated
from tcpp.errors import NoMartingaleMeasure, TcppError
from tcpp.market import (AssetProcess, ConstraintSet, GoodDealCaps,
                         QuotedOption, calibrated_bounds, calibration_feasible,
                         check_extends_dynamics, check_price_in_mme_bounds,
                         check_strong_admissibility, constrained_price,
                         good_deal_bounds, mme_bounds)
from tcpp.pricing import bid_ask, price
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.settings import Settings
from tcpp.tree import Claim, FiltrationTree, StoppingTime


def binomial_market():
    tree = FiltrationTree.binomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5})
    return tree, s


def trinomial_market():
    tree = FiltrationTree.trinomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0, 3: 0.5})
    return tree, s


def digital(tree):
    vals = {b: 0.0 for b in tree.leaves}
    vals[min(tree.leaves)] = 1.0
    return Claim(StoppingTime.at_horizon(tree), vals)


def test_extends_dynamics_binomial_kernels():
    tree, s = binomial_market()
    good = ScenarioModel(tree, {0: [MenuEntry((1 / 3, 2 / 3), 0.0)]})
    assert check_extends_dynamics(good, [s]).passed
    bad = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), 0.0)]})
    rep = check_extends_dynamics(bad, [s])
    assert not rep.passed
    assert any("node 0" in f.where for f in rep.findings)
    const = AssetProcess("B", {v: 1.0 for v in range(tree.n_nodes)})
    assert check_extends_dynamics(bad, [const]).passed


def test_mme_bounds_complete_binomial():
    tree, s = binomial_market()
    call = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0})
    b = mme_bounds(tree, [s], call)
    assert abs(b.lower - 1 / 3) <= 1e-9
    assert abs(b.upper - 1 / 3) <= 1e-9
    assert b.has_equivalent


def test_mme_bounds_trinomial_family():
    tree, s = trinomial_market()
    b = mme_bounds(tree, [s], digital(tree))
    assert abs(b.lower - 0.0) <= 1e-9
    assert abs(b.upper - 1 / 3) <= 1e-9
    const = Claim.constant(StoppingTime.at_horizon(tree), 2.2)
    b = mme_bounds(tree, [s], const)
    assert abs(b.lower - 2.2) <= 1e-9 and abs(b.upper - 2.2) <= 1e-9


def test_mme_bounds_no_martingale_measure():
    tree = FiltrationTree.binomial(1)
    rising = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.5})  # strictly above spot
    with pytest.raises(NoMartingaleMeasure):
        mme_bounds(tree, [rising], digital(tree))


def test_price_in_mme_bounds_sandwich():
    tree, s = trinomial_market()
    # menu uses two of the martingale kernels: strict inclusion expected
    model = ScenarioModel(tree, {0: [MenuEntry((0.1, 0.7, 0.2), 0.0),
                                     MenuEntry((0.2, 0.4, 0.4), 0.0)]})
    x = digital(tree)
    rep = check_price_in_mme_bounds(model, [s], [x])
    assert rep.passed
    bid, ask = bid_ask(model, x, StoppingTime.at_root(tree))
    b = mme_bounds(tree, [s], x)
    assert b.lower < bid.values[0] - 1e-6 and ask.values[0] < b.upper - 1e-6
    # precondition violation reported when dynamics fail
    bad = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0, 0.0), 0.0)]})
    rep = check_price_in_mme_bounds(bad, [s], [x])
    assert not rep.passed
    assert any("precondition" in f.where for f in rep.findings)


def test_calibration_feasibility_band():
    tree, s = trinomial_market()
    x = digital(tree)
    # no quotes: reduces to the equivalent-martingale-measure search
    q0 = calibration_feasible(tree, [s], [])
    assert q0 is not None and q0.is_equivalent()
    inside = QuotedOption("C", x, 0.1, 0.2)
    q0 = calibration_feasible(tree, [s], [inside])
    assert q0 is not None
    ev = float(q0.leaf_masses(tree) @ [x.values[b] for b in tree.leaves])
    assert 0.1 - 1e-9 <= ev <= 0.2 + 1e-9
    disjoint = QuotedOption("C", x, 0.5, 0.6)  # band outside [0, 1/3]
    assert calibration_feasible(tree, [s], [disjoint]) is None


def test_strong_admissibility_cases():
    tree, s = trinomial_market()
    x = digital(tree)
    quote = QuotedOption("C", x, 0.1, 0.2)
    calibrated = ScenarioModel(tree, {0: [MenuEntry((0.1, 0.7, 0.2), 0.0),
                                          MenuEntry((0.2, 0.4, 0.4), 0.0)]})
    rep = check_strong_admissibility(calibrated, [s], [quote])
    assert rep.passed, rep.summary()
    # a zero-penalty kernel pricing the quote above its ask breaks (A2)
    wide = ScenarioModel(tree, {0: [MenuEntry((1 / 3, 0.0, 2 / 3), 0.0),
                                    MenuEntry((0.2, 0.4, 0.4), 0.0)]})
    rep = check_strong_admissibility(wide, [s], [quote])
    assert not rep.passed
    assert any("quote C" in f.where for f in rep.findings)
    # no quotes: reduces to the dynamics check
    rep = check_strong_admissibility(calibrated, [s], [])
    assert rep.passed


def test_strong_admissibility_samples_without_enumerating():
    # binomial H=5 with 2 entries has 2^31 selections, over the default cap;
    # a bond leaves every kernel a martingale kernel, and a band just wider
    # than the model's own bid-ask keeps every penalty floor
    rng = np.random.default_rng(3)
    tree = FiltrationTree.binomial(5)
    model = ScenarioModel(tree, {v: [MenuEntry(tuple(rng.dirichlet([2.0, 2.0])), 0.0),
                                     MenuEntry(tuple(rng.dirichlet([2.0, 2.0])), 0.1)]
                                 for v in tree.internal_nodes()})
    assert model.selection_count() > Settings().max_enum
    bond = AssetProcess("B", dict.fromkeys(range(tree.n_nodes), 1.0))
    y = random_claim(rng, tree)
    bid, ask = bid_ask(model, y, StoppingTime.at_root(tree))
    band = QuotedOption("Y", y, bid.values[tree.root] - 0.01, ask.values[tree.root] + 0.01)
    rep = check_strong_admissibility(model, [bond], [band])
    assert rep.passed, rep.summary()
    short = QuotedOption("Y", y, bid.values[tree.root], ask.values[tree.root] - 0.01)
    rep = check_strong_admissibility(model, [bond], [short])
    assert [f.where for f in rep.findings] == ["quote Y"]


def test_calibrated_bounds_examples():
    tree, s = trinomial_market()
    x = digital(tree)
    # no quotes: equals the plain bounds
    lo, hi = calibrated_bounds(tree, [s], [], x)
    b = mme_bounds(tree, [s], x)
    assert abs(lo - b.lower) <= 1e-9 and abs(hi - b.upper) <= 1e-9
    # exact quote pins the up-kernel mass at the optimum faces
    pin = QuotedOption("C", x, 1 / 6, 1 / 6)
    mid = Claim(StoppingTime.at_horizon(tree), {1: 0.0, 2: 1.0, 3: 0.0})
    lo, hi = calibrated_bounds(tree, [s], [pin], mid)
    assert abs(lo - 1 / 6) <= 1e-9
    assert abs(hi - 5 / 6) <= 1e-9
    wide = mme_bounds(tree, [s], mid)
    assert wide.lower < lo - 1e-6 and hi < wide.upper - 1e-6
    # a quoted option reprices inside its own band
    band = QuotedOption("C", x, 0.1, 0.2)
    lo, hi = calibrated_bounds(tree, [s], [band], x)
    assert lo >= 0.1 - 1e-9 and hi <= 0.2 + 1e-9


def test_calibrated_bounds_grid_oracle():
    # one-parameter martingale family: q = (t/2, 1-1.5t, t); compare the
    # calibrated bounds against a fine grid of beta-penalized expectations
    tree, s = trinomial_market()
    x = digital(tree)
    y = Claim(StoppingTime.at_horizon(tree), {1: 0.0, 2: 1.0, 3: 0.0})
    quote = QuotedOption("C", x, 0.05, 0.12)
    lo, hi = calibrated_bounds(tree, [s], [quote], y)
    ts = np.linspace(0.0, 2 / 3, 20001)
    qu, qm = ts / 2, 1 - 1.5 * ts
    ex, eyq = qm * 1.0, qu * 1.0
    beta = np.maximum(0.0, np.maximum(quote.bid - eyq, eyq - quote.ask))
    assert abs(hi - np.max(ex - beta)) <= 1e-6
    assert abs(lo - np.min(ex + beta)) <= 1e-6


def test_monotone_narrowing_in_quotes():
    rng = np.random.default_rng(3)
    tree, s = trinomial_market()
    x = digital(tree)
    y2 = Claim(StoppingTime.at_horizon(tree), {1: 0.0, 2: 1.0, 3: 0.0})
    quotes = []
    prev = calibrated_bounds(tree, [s], quotes, x)
    for k in range(6):
        ev_lo, ev_hi = sorted(rng.uniform(0.0, 0.4, size=2))
        quotes.append(QuotedOption(f"Q{k}", y2 if k % 2 else x, ev_lo, ev_hi))
        cur = calibrated_bounds(tree, [s], quotes, x)
        assert cur[0] >= prev[0] - 1e-9
        assert cur[1] <= prev[1] + 1e-9
        prev = cur


def test_good_deal_limits():
    tree, s = trinomial_market()
    x = digital(tree)
    huge = good_deal_bounds(tree, [s], GoodDealCaps.uniform(1e6), x)
    base = mme_bounds(tree, [s], x)
    assert abs(huge[0] - base.lower) <= 1e-6
    assert abs(huge[1] - base.upper) <= 1e-6
    # cap 1 forces the reference kernel; feasible only when P is martingale
    tree_m = FiltrationTree.binomial(1, [1 / 3, 2 / 3])
    s_m = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5})
    call = Claim(StoppingTime.at_horizon(tree_m), {1: 1.0, 2: 0.0})
    lo, hi = good_deal_bounds(tree_m, [s_m], GoodDealCaps.uniform(1.0), call)
    ep = 1 / 3
    assert abs(lo - ep) <= 1e-8 and abs(hi - ep) <= 1e-8


def test_good_deal_grid_oracle():
    from oracles import good_deal_interval_oracle
    tree, s = trinomial_market()
    x = digital(tree)
    cap = 1.2
    lo, hi = good_deal_bounds(tree, [s], GoodDealCaps.uniform(cap), x)
    want_lo, want_hi = good_deal_interval_oracle(cap)
    assert abs(lo - want_lo) <= 1e-6
    assert abs(hi - want_hi) <= 1e-6


def test_good_deal_nesting_and_monotone_caps():
    tree, s = trinomial_market()
    x = digital(tree)
    base = mme_bounds(tree, [s], x)
    prev = None
    for cap in (2.0, 1.5, 1.3, 1.2):
        lo, hi = good_deal_bounds(tree, [s], GoodDealCaps.uniform(cap), x)
        assert lo >= base.lower - 1e-9 and hi <= base.upper + 1e-9
        if prev is not None:
            assert lo >= prev[0] - 1e-8 and hi <= prev[1] + 1e-8
        prev = (lo, hi)


def test_good_deal_cap_validation():
    with pytest.raises(TcppError):
        GoodDealCaps.uniform(0.5)


@pytest.mark.parametrize("caps", [
    pytest.param(lambda: GoodDealCaps.uniform(float("nan")), id="default"),
    pytest.param(lambda: GoodDealCaps(1.5, {0: float("nan")}), id="per-node"),
])
def test_good_deal_cap_nan_rejected(caps):
    with pytest.raises(TcppError, match="nan"):
        caps()


def test_good_deal_cap_off_the_internal_nodes_rejected():
    tree, s = trinomial_market()
    for node in (2, 99):      # a leaf, and no node at all
        with pytest.raises(TcppError, match=f"node {node}, which is not an internal node"):
            good_deal_bounds(tree, [s], GoodDealCaps(1.5, {node: 1.2}), digital(tree))


def test_cap_arrays_match_the_caps_node_by_node():
    rng = np.random.default_rng(23)
    failed = 0
    for i in range(60):
        tree = relabelled(random_irregular_tree(rng), rng) if i % 2 else random_tree(rng)
        internal = tree.internal_nodes()
        picked = rng.choice(internal, size=int(rng.integers(0, len(internal) + 1)),
                            replace=False)
        caps = GoodDealCaps(None if i % 3 == 0 else float(rng.uniform(1.0, 2.0)),
                            {int(v): float(rng.uniform(1.0, 3.0)) for v in picked})
        try:
            want = [caps.cap(v) if tree.children[v] else np.inf for v in range(tree.n_nodes)]
        except TcppError as exc:
            failed += 1
            with pytest.raises(TcppError, match=f"^{exc}$"):
                caps.on(tree)
            continue
        assert caps.on(tree).tolist() == want
    assert 0 < failed < 60


def test_assets_hold_one_array_per_node():
    tree = FiltrationTree.binomial(2)
    values = {v: 1.0 + v for v in range(tree.n_nodes)}
    by_map, by_array = AssetProcess("S", values), AssetProcess("S", np.arange(1.0, 8.0))
    assert by_map == by_array and by_map.values == by_array.values == values
    assert by_map.on(tree).tolist() == by_array.on(tree).tolist() == list(values.values())
    assert AssetProcess("T", values) != by_map
    # nodes beyond the tree are ignored; the nodes it misses are named
    assert AssetProcess("S", {**values, 99: 5.0, -1: 2.0}).on(tree).tolist() == \
        list(values.values())
    for partial, missing in (({0: 1.0, 1: 2.0, 5: 3.0}, "2, 3, 4, 6"),
                             (np.array([1.0, np.nan, 2.0]), "1, 3, 4, 5, 6")):
        with pytest.raises(TcppError, match=rf"undefined on nodes \[{missing}\]$"):
            AssetProcess("S", partial).validate(tree)
    for bad in ({0: 1.0, 1: float("inf")}, np.array([1.0, np.inf])):
        with pytest.raises(TcppError, match="value inf at node 1 is not finite"):
            AssetProcess("S", bad)


@pytest.mark.parametrize("bid,ask,pay", [
    pytest.param(float("nan"), 0.2, 1.0, id="bid-nan"),
    pytest.param(0.1, float("inf"), 1.0, id="ask-inf"),
    pytest.param(-float("inf"), 0.2, 1.0, id="bid-minus-inf"),
    pytest.param(0.1, 0.2, float("nan"), id="payoff-nan"),
])
def test_quoted_option_rejects_non_finite_values(bid, ask, pay):
    tree, _ = trinomial_market()
    x = Claim(StoppingTime.at_horizon(tree), {1: pay, 2: 0.0, 3: 0.0})
    with pytest.raises(TcppError, match="quote C: .*is not finite"):
        QuotedOption("C", x, bid, ask)


def test_constrained_price_zero_set_is_childwise_max():
    tree = FiltrationTree.binomial(2)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5, 3: 4.0, 4: 1.0, 5: 1.0, 6: 0.25})
    x = Claim(StoppingTime.at_horizon(tree), {3: 3.0, 4: 0.0, 5: 0.7, 6: 0.2})
    got = constrained_price(tree, [s], ConstraintSet([(0.0,)]), x)
    assert got.values[0] == 3.0  # iterated childwise maxima, exactly
    zero = Claim.constant(StoppingTime.at_horizon(tree), 0.0)
    assert constrained_price(tree, [s], ConstraintSet([(0.0,)]), zero).values[0] == 0.0


def test_constrained_price_band_sweep_to_replication():
    tree, s = binomial_market()
    call = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0})
    prev = None
    for m in (1.0, 10.0, 100.0):
        h = ConstraintSet([(-m,), (m,)])
        v = constrained_price(tree, [s], h, call).values[0]
        assert v >= 1 / 3 - 1e-9
        if prev is not None:
            assert v <= prev + 1e-9
        prev = v
    assert abs(prev - 1 / 3) <= 1e-6


def test_constrained_price_grid_oracle_two_periods():
    # brute-force the dual form: sup over kernel grids of expected value
    # minus the accumulated upper-variation penalty
    rng = np.random.default_rng(5)
    tree = FiltrationTree.binomial(2)
    svals = {0: 1.0, 1: 1.6, 2: 0.7, 3: 2.3, 4: 1.1, 5: 1.0, 6: 0.4}
    s = AssetProcess("S", {v: float(svals[v]) for v in range(tree.n_nodes)})
    h = ConstraintSet([(-0.8,), (1.2,)])
    x = Claim(StoppingTime.at_horizon(tree), {b: float(rng.uniform(-1, 2))
                                              for b in tree.leaves})
    got = constrained_price(tree, [s], h, x).values[0]
    want = binomial_constrained_oracle(tree, s, h, dict(x.values))
    assert abs(got - want) <= 1e-6


def test_constraint_set_requires_zero():
    tree, s = binomial_market()
    call = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0})
    with pytest.raises(TcppError):
        constrained_price(tree, [s], ConstraintSet([(1.0,), (2.0,)]), call)


def test_constraint_set_from_halfspaces():
    # box [-1, 1]^2
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    cs = ConstraintSet.from_halfspaces(a, b)
    assert sorted(cs.vertices) == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_martingale_selections_of_extending_model():
    # both directions: menus built from martingale kernels extend the
    # dynamics, and every selection measure of an extending model satisfies
    # the per-node martingale identity
    tree, s = trinomial_market()
    model = ScenarioModel(tree, {0: [MenuEntry((0.1, 0.7, 0.2), 0.0),
                                     MenuEntry((0.2, 0.4, 0.4), 0.05)]})
    assert check_extends_dynamics(model, [s]).passed
    from tcpp.scenario import enumerate_selections, selection_to_measure
    for sel in enumerate_selections(model):
        q = selection_to_measure(model, sel)
        for node in tree.internal_nodes():
            lhs = sum(q.mass(tree, c) * s.values[c] for c in tree.children[node])
            assert abs(lhs - s.values[node] * q.mass(tree, node)) <= 1e-9


def test_sublinear_calibrated_model_is_kernel_esssup():
    # zero-penalty calibrated model: price equals the maximum expectation
    # over the kernel-generated stable family (enumeration oracle)
    rng = np.random.default_rng(9)
    tree, s = trinomial_market()
    model = ScenarioModel(tree, {0: [MenuEntry((0.1, 0.7, 0.2), 0.0),
                                     MenuEntry((0.2, 0.4, 0.4), 0.0)]})
    for _ in range(10):
        x = random_claim(rng, tree)
        root = StoppingTime.at_root(tree)
        assert price(model, x, root).allclose(price_enumerated(model, x, root), 1e-9)


def test_mme_bounds_flags_missing_equivalent_measure():
    # unique martingale measure sits on the boundary: it kills the up leaf
    tree = FiltrationTree.binomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0})
    call = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0})
    b = mme_bounds(tree, [s], call)
    assert not b.has_equivalent
    assert abs(b.lower) <= 1e-9 and abs(b.upper) <= 1e-9


def test_good_deal_per_node_caps():
    # asset martingale under P only at the root; capping the root at 1 pins
    # its kernel to the uniform reference one while the subtrees stay free
    tree = FiltrationTree.from_branching([3, 2])
    s_vals = {0: 7 / 6, 1: 2.0, 2: 1.0, 3: 0.5}
    for node in (1, 2, 3):
        for c in tree.children[node]:
            s_vals[c] = s_vals[node]  # constant continuation
    s = AssetProcess("S", {v: float(s_vals[v]) for v in range(tree.n_nodes)})
    x_vals = {}
    for node, pair in ((1, (1.0, 0.0)), (2, (0.6, 0.2)), (3, (0.9, 0.1))):
        for c, v in zip(tree.children[node], pair):
            x_vals[c] = v
    x = Claim(StoppingTime.at_horizon(tree), x_vals)
    caps = GoodDealCaps(default=1e6, per_node={0: 1.0})
    lo, hi = good_deal_bounds(tree, [s], caps, x)
    # root kernel pinned to (1/3, 1/3, 1/3); below, any kernel is allowed
    want_hi = (1.0 + 0.6 + 0.9) / 3
    want_lo = (0.0 + 0.2 + 0.1) / 3
    assert abs(hi - want_hi) <= 1e-8
    assert abs(lo - want_lo) <= 1e-8


def test_calibration_with_stopping_time_maturity_quote():
    # quote written on a time-1 claim inside a two-period market
    tree = FiltrationTree.binomial(2)
    s_vals = {0: 1.0, 1: 2.0, 2: 0.5, 3: 4.0, 4: 1.0, 5: 1.0, 6: 0.25}
    s = AssetProcess("S", s_vals)
    early = Claim(StoppingTime.at_time(tree, 1), {1: 1.0, 2: 0.0})
    # the market is complete: E_Q(early) = 1/3 for the unique measure, so a
    # band containing 1/3 is feasible and one away from it is not
    q0 = calibration_feasible(tree, [s], [QuotedOption("E", early, 0.3, 0.4)])
    assert q0 is not None and q0.is_equivalent()
    assert abs(q0.mass(tree, 1) - 1 / 3) <= 1e-9
    assert calibration_feasible(tree, [s],
                                [QuotedOption("E", early, 0.4, 0.5)]) is None
