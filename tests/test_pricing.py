"""Pricing engine: evaluator, axioms, consistency, American options."""
import itertools

import numpy as np
import pytest

import oracles
from gen import (claim_pairs, random_claim, random_irregular_tree, random_model,
                 random_tree)
from tcpp.scenario import (MenuEntry, PenaltyProcess, ScenarioModel,
                           check_cocycle, enumerate_selections)
from tcpp.pricing import (american_price, bid_ask, chain_prices,
                          check_axioms, check_sublinear, check_supermartingale,
                          check_time_consistency, enumerate_stop_sets,
                          non_rectangular_counterexample, price,
                          price_process, random_stopping_time)
from tcpp.errors import TcppError
from tcpp.nfl import find_zero_penalty_equivalent_measure
from tcpp.tree import Claim, FiltrationTree, Measure, StoppingTime, lift


def test_price_normalization_and_measurable_claim():
    rng = np.random.default_rng(1)
    tree = random_tree(rng)
    model = random_model(rng, tree)
    root = StoppingTime.at_root(tree)
    horizon = StoppingTime.at_horizon(tree)
    zero = Claim.constant(horizon, 0.0)
    assert price(model, zero, root).values[tree.root] == 0.0
    z = random_claim(rng, tree, at=StoppingTime.at_time(tree, 1))
    lifted = lift(tree, z, horizon)
    got = price(model, lifted, StoppingTime.at_time(tree, 1))
    assert got.allclose(z, 1e-12)


def test_trinomial_two_entry_example():
    tree = FiltrationTree.trinomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1 / 3, 0.0, 2 / 3), 0.0),
                                     MenuEntry((0.0, 1.0, 0.0), 0.2)]})
    x = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0, 3: 0.0})
    root = StoppingTime.at_root(tree)
    assert abs(price(model, x, root).values[0] - 1 / 3) <= 1e-12
    bid, ask = bid_ask(model, x, root)
    assert abs(bid.values[0] - 0.2) <= 1e-12
    assert abs(ask.values[0] - 1 / 3) <= 1e-12


def test_constant_claim_bid_equals_ask():
    rng = np.random.default_rng(3)
    tree = random_tree(rng)
    model = random_model(rng, tree)
    c = Claim.constant(StoppingTime.at_horizon(tree), 1.7)
    bid, ask = bid_ask(model, c, StoppingTime.at_root(tree))
    assert abs(bid.values[tree.root] - 1.7) <= 1e-12
    assert abs(ask.values[tree.root] - 1.7) <= 1e-12


def test_sublinear_spread_is_expectation_gap():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((0.8, 0.2), 0.0),
                                     MenuEntry((0.3, 0.7), 0.0)]})
    x = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0})
    bid, ask = bid_ask(model, x, StoppingTime.at_root(tree))
    assert abs(ask.values[0] - 0.8) <= 1e-12
    assert abs(bid.values[0] - 0.3) <= 1e-12


def test_oracle_equivalence_random_models():
    rng = np.random.default_rng(5)
    for _ in range(25):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree)
        x = random_claim(rng, tree)
        sigma = random_stopping_time(tree, rng)
        direct = price(model, x, sigma)
        oracle = oracles.price_enumerated(model, x, sigma)
        assert direct.allclose(oracle, 1e-9)


def test_bid_never_exceeds_ask_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tree = random_tree(rng)
        model = random_model(rng, tree)
        x = random_claim(rng, tree)
        sigma = random_stopping_time(tree, rng)
        bid, ask = bid_ask(model, x, sigma)
        for a in sigma.cut:
            assert bid.values[a] <= ask.values[a] + 1e-12
    # price_process validates the same invariant along a chain
    chain = [StoppingTime.at_time(tree, t) for t in range(tree.horizon + 1)]
    price_process(model, x, chain)


def test_check_axioms_passes_scenario_models():
    rng = np.random.default_rng(11)
    for _ in range(5):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree)
        rep = check_axioms(model, claim_pairs(rng, tree, 50))
        assert rep.passed, rep.summary()


def test_check_axioms_flags_negative_penalty():
    tree = FiltrationTree.binomial(1)
    broken = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), -0.3)]})
    rng = np.random.default_rng(0)
    rep = check_axioms(broken, claim_pairs(rng, tree, 5))
    assert not rep.passed
    assert any("normalization" in f.message for f in rep.findings)


def test_check_axioms_matches_the_per_atom_oracle():
    """Whole-array comparisons report what the per-atom loops did, in the
    same order and text: random trees and cuts, two cuts interleaved among
    the samples, a negative penalty on every fourth model, and no tolerance,
    where rounding shows as findings."""
    rng = np.random.default_rng(31)
    kinds = set()
    for k in range(60):
        tree = random_irregular_tree(rng) if k % 2 else random_tree(rng, max_periods=3)
        model = random_model(rng, tree)
        if k % 4 == 3:
            v = int(rng.choice(tree.internal_nodes()))
            menus = dict(model.menus)
            menus[v] = [MenuEntry(e.kernel, e.penalty - 0.3) for e in menus[v]]
            model = ScenarioModel(tree, menus)
        cuts = [random_stopping_time(tree, rng) for _ in range(2)]
        samples = [(random_claim(rng, tree, cuts[i % 2]), random_claim(rng, tree, cuts[i % 2]))
                   for i in range(6)]
        for tol in (0.0, 1e-12):
            got = check_axioms(model, samples, seed=k, tol=tol)
            want = oracles.check_axioms_per_atom(model, samples, seed=k, tol=tol)
            assert (got.passed, got.findings) == (want.passed, want.findings), k
            kinds |= {f.message.split(" ")[0] for f in got.findings}
    assert {"normalization:", "translation", "convexity"} <= kinds, kinds


@pytest.mark.parametrize("cut", [(1, 3, 4, 5, 6), (3, 4)])
def test_check_axioms_validates_each_cut(cut):
    tree = FiltrationTree.binomial(2)
    at = StoppingTime.of(cut)
    pair = (Claim.constant(at, 1.0), Claim.constant(at, -1.0))
    horizon = StoppingTime.at_horizon(tree)
    good = (Claim.constant(horizon, 1.0), Claim.constant(horizon, 0.0))
    with pytest.raises(TcppError, match="meets the cut"):
        check_axioms(ScenarioModel.reference(tree), [good, pair])


def test_check_sublinear_true_false_and_witness():
    tree = FiltrationTree.binomial(1)
    zero = ScenarioModel(tree, {0: [MenuEntry((0.7, 0.3), 0.0),
                                    MenuEntry((0.2, 0.8), 0.0)]})
    assert bool(check_sublinear(zero))
    convex = ScenarioModel(tree, {0: [MenuEntry((0.7, 0.3), 0.0),
                                      MenuEntry((0.2, 0.8), 0.35)]})
    rep = check_sublinear(convex)
    assert not rep.sublinear
    assert rep.witness is not None
    x, lam, sigma, lhs, rhs = rep.witness
    again = price(convex, lam * x, sigma)
    base = price(convex, x, sigma)
    a = next(iter(sigma.cut))
    assert again.values[a] > lam * base.values[a] + 1e-10


def test_check_time_consistency_of_backward_induction():
    rng = np.random.default_rng(13)
    tree = random_tree(rng, max_periods=3)
    model = random_model(rng, tree)
    horizon = StoppingTime.at_horizon(tree)
    chains = []
    for _ in range(6):
        sigma = random_stopping_time(tree, rng)
        chains.append((StoppingTime.at_root(tree), sigma, horizon))
    samples = [random_claim(rng, tree) for _ in range(30)]
    rep = check_time_consistency(model, chains, samples)
    assert rep.passed, rep.summary()


def _same_price(got: dict, want: dict) -> bool:
    # a matmul over several columns may round a kernel product in the last
    # bit unlike the one-column product of a single price call (OpenBLAS's
    # FMA gemv kernels do), so stacked prices agree to a few ulps
    return got.keys() == want.keys() and all(
        abs(got[a] - want[a]) <= 1e-14 * (1.0 + abs(want[a])) for a in want)


def test_chain_prices_equal_per_claim_prices():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_periods=4)
        model = random_model(rng, tree)
        tau = random_stopping_time(tree, rng)
        sigma = random_stopping_time(tree, rng, hi=tau)
        nu = random_stopping_time(tree, rng, hi=sigma)
        xs = [random_claim(rng, tree, at=tau) for _ in range(int(rng.integers(1, 8)))]
        direct, composed = chain_prices(model, nu, sigma, tau, xs)
        for j, x in enumerate(xs):
            assert _same_price(Claim(nu, direct[:, j]).values, price(model, x, nu).values)
            assert _same_price(Claim(nu, composed[:, j]).values,
                               price(model, price(model, x, sigma), nu).values)
        rep = check_time_consistency(model, [(nu, sigma, tau)], xs)
        assert rep.passed, rep.summary()


def test_time_consistency_validates_its_samples():
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    root, horizon = StoppingTime.at_root(tree), StoppingTime.at_horizon(tree)
    good = Claim.constant(horizon, 1.0)
    bad = Claim(horizon, {**good.values, 5: float("nan")})
    with pytest.raises(TcppError, match="claim value nan at node 5 is not finite"):
        check_time_consistency(model, [(root, root, horizon)], [good, bad])
    foreign = StoppingTime.of([1, 99])
    with pytest.raises(TcppError):
        chain_prices(model, root, foreign, horizon, [good])


def shared_kernel_model(rng, tree):
    """Every entry at a node on one kernel, the penalties apart: positive
    penalties that are never strictly active."""
    menus = {}
    for v in tree.internal_nodes():
        kernel = tuple(rng.dirichlet(np.ones(len(tree.children[v]))))
        pens = [0.0] + rng.exponential(0.2, int(rng.integers(0, 3))).tolist()
        menus[v] = [MenuEntry(kernel, p) for p in pens]
    return ScenarioModel(tree, menus)


def test_check_sublinear_matches_per_claim_version():
    outcomes = set()
    for seed in range(210):
        rng = np.random.default_rng(seed)
        tree = (random_irregular_tree if seed % 3 == 1 else random_tree)(rng)
        model = (shared_kernel_model(rng, tree) if seed % 7 == 3
                 else random_model(rng, tree, sublinear=seed % 5 == 0))
        n_samples = int(rng.integers(0, 4)) if seed % 2 else 20
        got = check_sublinear(model, n_samples=n_samples, seed=seed)
        want = oracles.check_sublinear_per_claim(model, n_samples=n_samples, seed=seed)
        assert (got.sublinear, got.note) == (want.sublinear, want.note)
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            # the same claim, scale and stopping time; prices as in _same_price
            assert got.witness[:3] == want.witness[:3]
            assert _same_price(dict(enumerate(got.witness[3:])),
                               dict(enumerate(want.witness[3:])))
        outcomes.add((got.sublinear, got.witness is None,
                      got.witness is not None and got.witness[2].cut == {tree.root}))
    # sublinear, a sampled witness, a targeted witness and none at all
    assert outcomes == {(True, True, False), (False, False, True),
                        (False, False, False), (False, True, False)}


def test_non_rectangular_counterexample_fails_consistently():
    evaluator, model, penalty = non_rectangular_counterexample()
    tree = evaluator.tree
    rng = np.random.default_rng(17)
    root = StoppingTime.at_root(tree)
    t1 = StoppingTime.at_time(tree, 1)
    horizon = StoppingTime.at_horizon(tree)
    samples = [random_claim(rng, tree) for _ in range(40)]
    rep = check_time_consistency(evaluator, [(root, t1, horizon)], samples)
    assert not rep.passed
    assert rep.info["witness_node"] == tree.root
    coc = check_cocycle(penalty, model)
    assert not coc.passed
    assert any(f.where == f"node {tree.root}" for f in coc.findings)
    # the rectangular model built from the same kernels and one-step
    # penalties is consistent
    rep2 = check_time_consistency(model, [(root, t1, horizon)], samples)
    assert rep2.passed


def test_supermartingale_sandwich_and_preconditions():
    tree = FiltrationTree.binomial(2)
    menus = {v: [MenuEntry((0.6, 0.4), 0.0), MenuEntry((0.4, 0.6), 0.0)]
             for v in tree.internal_nodes()}
    model = ScenarioModel(tree, menus)
    r = find_zero_penalty_equivalent_measure(model)
    assert r is not None
    rng = np.random.default_rng(19)
    x = random_claim(rng, tree)
    rep = check_supermartingale(model, x, r)
    assert rep.passed, rep.summary()
    # constant claim: everything collapses to equalities
    rep = check_supermartingale(model, Claim.constant(StoppingTime.at_horizon(tree), 3.0), r)
    assert rep.passed
    # non-equivalent measure violates the precondition
    dead = Measure({3: 4.0, 4: 0.0, 5: 0.0, 6: 0.0})
    rep = check_supermartingale(model, x, dead)
    assert not rep.passed
    assert any("equivalent" in f.message for f in rep.findings)
    # positive-penalty measure violates the other precondition
    skew = ScenarioModel(tree, {v: [MenuEntry((0.6, 0.4), 0.0),
                                    MenuEntry((0.4, 0.6), 0.5)]
                                for v in tree.internal_nodes()})
    from tcpp.scenario import MeasureSelection, selection_to_measure
    costly = selection_to_measure(
        skew, MeasureSelection.of({v: 1 for v in tree.internal_nodes()}))
    rep = check_supermartingale(skew, x, costly)
    assert not rep.passed
    assert any("penalty" in f.message for f in rep.findings)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_claim_names_the_node(bad):
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel.reference(tree)
    x = Claim(StoppingTime.at_horizon(tree), {1: bad, 2: 0.0})
    with pytest.raises(TcppError, match="node 1 is not finite"):
        price(model, x, StoppingTime.at_root(tree))


def test_enumerate_stop_sets_binomial_count():
    tree = FiltrationTree.binomial(2)
    sets = enumerate_stop_sets(tree, tree.root, StoppingTime.at_horizon(tree))
    assert len(sets) == 5  # the five stopping times of a two-period binomial
    for s in sets:
        st = StoppingTime.of(s)
        from tcpp.tree import validate_stopping_time
        validate_stopping_time(tree, st)


def test_american_monotone_payoff_stops_at_maturity():
    rng = np.random.default_rng(23)
    tree = FiltrationTree.binomial(2)
    model = random_model(rng, tree, sublinear=True)
    payoff = {v: float(tree.times[v]) for v in range(tree.n_nodes)}  # increasing
    nu = StoppingTime.at_root(tree)
    tau = StoppingTime.at_horizon(tree)
    res = american_price(model, payoff, nu, tau)
    terminal = price(model, Claim(tau, {b: payoff[b] for b in tau.cut}), nu)
    assert res.value.allclose(terminal, 1e-9)
    assert res.optimal[tree.root] == tree.leaves


def test_american_constant_payoff():
    rng = np.random.default_rng(29)
    tree = FiltrationTree.binomial(2)
    model = random_model(rng, tree)
    payoff = {v: 2.5 for v in range(tree.n_nodes)}
    res = american_price(model, payoff, StoppingTime.at_root(tree),
                         StoppingTime.at_horizon(tree))
    assert abs(res.value.values[tree.root] - 2.5) <= 1e-9


def test_american_put_unique_mme_binomial():
    # two-period binomial, strike 1, S = (1; 2, .5; 4, 1, 1, .25), MME kernel 1/3
    tree = FiltrationTree.binomial(2)
    s = {0: 1.0, 1: 2.0, 2: 0.5, 3: 4.0, 4: 1.0, 5: 1.0, 6: 0.25}
    model = ScenarioModel(tree, {v: [MenuEntry((1 / 3, 2 / 3), 0.0)]
                                 for v in tree.internal_nodes()})
    payoff = {v: max(1.0 - s[v], 0.0) for v in range(tree.n_nodes)}
    nu = StoppingTime.at_root(tree)
    tau = StoppingTime.at_horizon(tree)
    res = american_price(model, payoff, nu, tau)
    # oracle: hand enumeration over the five stopping times
    candidates = []
    for stop in enumerate_stop_sets(tree, tree.root, tau):
        candidates.append(price(model, Claim(StoppingTime.of(stop),
                                             {v: payoff[v] for v in stop}), nu).values[0])
    assert abs(res.value.values[0] - max(candidates)) <= 1e-12
    assert abs(res.value.values[0] - 1 / 3) <= 1e-12
    assert res.optimal[0] == (1, 2)     # exercise the put at time 1


def test_american_sublinear_matches_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(10):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree, sublinear=True)
        payoff = {v: float(rng.uniform(0, 2)) for v in range(tree.n_nodes)}
        nu, tau = StoppingTime.at_root(tree), StoppingTime.at_horizon(tree)
        res = american_price(model, payoff, nu, tau)
        want, _ = oracles.american_enumerated(model, payoff, nu, tau)
        assert res.value.allclose(want, 1e-9)
        assert res.optimal  # witnesses recorded


def test_american_from_a_later_cut():
    rng = np.random.default_rng(41)
    tree = FiltrationTree.binomial(3)
    model = random_model(rng, tree, sublinear=True)
    payoff = {v: float(rng.uniform(0, 2)) for v in range(tree.n_nodes)}
    nu = StoppingTime.of([1, 5, 6])
    tau = StoppingTime.at_horizon(tree)
    res = american_price(model, payoff, nu, tau)
    for a in nu.cut:
        rest = [b for b in nu.cut if b != a]
        best = max(price(model, Claim(StoppingTime.of(stop + tuple(rest)),
                                      {v: payoff[v] for v in stop + tuple(rest)}),
                         nu).values[a]
                   for stop in enumerate_stop_sets(tree, a, tau))
        assert abs(res.value.values[a] - best) <= 1e-12
        stop = res.optimal[a] + tuple(rest)
        exercised = price(model, Claim(StoppingTime.of(stop), {v: payoff[v] for v in stop}), nu)
        assert exercised.values[a] == res.value.values[a]


def test_deterministic_chains_pass_but_random_sigma_fails():
    from tcpp.pricing import deterministic_vs_stopping_counterexample
    evaluator, mixed = deterministic_vs_stopping_counterexample()
    tree = evaluator.tree
    rng = np.random.default_rng(37)
    root = StoppingTime.at_root(tree)
    t1 = StoppingTime.at_time(tree, 1)
    horizon = StoppingTime.at_horizon(tree)
    samples = [random_claim(rng, tree) for _ in range(30)]
    det = check_time_consistency(evaluator, [(root, t1, horizon)], samples)
    assert det.passed, det.summary()
    rand = check_time_consistency(evaluator, [(root, mixed, horizon)], samples)
    assert not rand.passed


def test_esssup_over_dual_family_reproduces_price():
    from tcpp.scenario import (aggregate_penalty, enumerate_selections,
                               selection_to_measure)
    from tcpp.tree import conditional_expectation, essential_supremum
    rng = np.random.default_rng(41)
    tree = FiltrationTree.binomial(2)
    model = random_model(rng, tree, max_entries=2)  # Dirichlet kernels: positive
    sigma = StoppingTime.at_time(tree, 1)
    x = random_claim(rng, tree)
    members = []
    for sel in enumerate_selections(model):
        q = selection_to_measure(model, sel)
        e = conditional_expectation(tree, q, x, sigma)
        pen = aggregate_penalty(model, sel, sigma, x.at)
        members.append(e - pen)
    sup = essential_supremum(tree, members)
    assert sup.allclose(price(model, x, sigma), 1e-9)


def test_american_enumeration_cap():
    from tcpp.errors import EnumerationOverflow
    from tcpp.settings import Settings
    tree = FiltrationTree.binomial(2)
    horizon = StoppingTime.at_horizon(tree)
    assert len(enumerate_stop_sets(tree, tree.root, horizon, Settings(max_enum=5))) == 5
    with pytest.raises(EnumerationOverflow):
        enumerate_stop_sets(tree, tree.root, horizon, Settings(max_enum=4))
