"""Pricing engine: evaluator, axioms, consistency, American options."""
import itertools

import numpy as np
import pytest

from gen import claim_pairs, random_claim, random_model, random_tree
from tcpp.scenario import (MenuEntry, PenaltyProcess, ScenarioModel,
                           check_cocycle, enumerate_selections)
from tcpp.pricing import (american_price, bid_ask, check_axioms,
                          check_sublinear, check_supermartingale,
                          check_time_consistency, enumerate_stop_sets,
                          non_rectangular_counterexample, price,
                          price_enumerated, price_process,
                          random_stopping_time)
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
        oracle = price_enumerated(model, x, sigma)
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
    assert res.agree


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
    assert res.agree


def test_american_induction_agreement_reported_not_assumed():
    rng = np.random.default_rng(31)
    for _ in range(10):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree, sublinear=True)
        payoff = {v: float(rng.uniform(0, 2)) for v in range(tree.n_nodes)}
        res = american_price(model, payoff, StoppingTime.at_root(tree),
                             StoppingTime.at_horizon(tree))
        assert res.agree  # sublinear instances agree
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
    assert res.agree


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
    model = ScenarioModel.reference(tree)
    payoff = {v: 1.0 for v in range(tree.n_nodes)}
    with pytest.raises(EnumerationOverflow):
        american_price(model, payoff, StoppingTime.at_root(tree),
                       StoppingTime.at_horizon(tree), Settings(max_enum=4))
