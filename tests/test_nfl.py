"""No-free-lunch characterizations, certificates, and their agreement."""
import numpy as np
import pytest

import oracles
import tcpp.nfl
import tcpp.pricing
from gen import killed_leaf_model, random_claim, random_model, random_tree
from oracles import ZeroCostStrategy, sample_zero_cost_by_price, validate_zero_cost_by_price
from tcpp.nfl import (FreeLunchCertificate, find_static_free_lunch,
                      find_zero_penalty_equivalent_measure, nfl_verdict)
from tcpp.cli import main
from tcpp.errors import TcppError
from tcpp.marketfile import MarketData, serialize_market
from tcpp.pricing import bid_ask, price
from tcpp.scenario import MenuEntry, ScenarioModel, minimal_penalty
from tcpp.tree import Claim, FiltrationTree, StoppingTime


def test_reference_model_has_no_static_lunch():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel.reference(tree)
    assert find_static_free_lunch(model) is None
    r = find_zero_penalty_equivalent_measure(model)
    assert r is not None
    assert max(abs(r.density[v] - 1.0) for v in tree.leaves) <= 1e-9


def test_two_kernel_sublinear_model_no_lunch_and_midpoint_measure():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0), 0.0),
                                     MenuEntry((0.0, 1.0), 0.0)]})
    assert find_static_free_lunch(model) is None
    r = find_zero_penalty_equivalent_measure(model)
    # the uniform mixture is the midpoint: each leaf carries mass 1/2
    masses = r.leaf_masses(tree)
    assert np.allclose(masses, [0.5, 0.5], atol=1e-9)


def test_single_killing_kernel_yields_certificate():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0), 0.0),
                                     MenuEntry((1.0, 0.0), 0.3)]})
    cert = find_static_free_lunch(model)
    assert cert is not None and cert.kind == "static-arbitrage-claim"
    vals = cert.claim.values
    assert vals[2] > 0 and abs(vals[1]) <= 1e-12
    assert price(model, cert.claim, StoppingTime.at_root(tree)).values[0] <= 1e-9
    assert find_zero_penalty_equivalent_measure(model) is None


def test_small_scale_free_lunch_found():
    # the zero-penalty family kills the third leaf while a positive-penalty
    # kernel charges it: only scaled-down claims are free lunches
    tree = FiltrationTree.trinomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0, 0.0), 0.0),
                                     MenuEntry((0.0, 1.0, 0.0), 0.0),
                                     MenuEntry((0.0, 0.0, 1.0), 0.1)]})
    cert = find_static_free_lunch(model)
    assert cert is not None
    assert cert.claim.values[3] > 0
    assert price(model, cert.claim, StoppingTime.at_root(tree)).values[0] <= 1e-9
    rep = nfl_verdict(model)
    assert not rep.no_free_lunch


def test_the_static_certificate_is_priced_once(monkeypatch):
    # the search prices its claim and the verdict reads that price: one
    # backward pass on a free-lunch model, where the verdict priced it again
    tree = FiltrationTree.trinomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0, 0.0), 0.0),
                                     MenuEntry((0.0, 0.0, 1.0), 0.1)]})
    passes = []
    backward_pass = tcpp.pricing.backward_pass
    counted = lambda *args: passes.append(args[1]) or backward_pass(*args)
    monkeypatch.setattr(tcpp.pricing, "backward_pass", counted)
    assert not hasattr(tcpp.nfl, "backward_pass")      # nfl prices through tcpp.pricing
    rep = nfl_verdict(model)
    assert not rep.no_free_lunch and len(passes) == 1
    root = StoppingTime.at_root(tree)
    assert rep.checks.info["certificate_price"] == price(model, rep.certificate.claim, root).values[0]


def test_certificate_dataclass_shape():
    tree = FiltrationTree.binomial(1)
    claim = Claim(StoppingTime.at_horizon(tree), {1: 0.0, 2: 1.0})
    with pytest.raises(TcppError):
        FreeLunchCertificate("zero-penalty-equivalent-measure", claim=claim)


def test_sample_zero_cost_trivial_and_slack_swaps():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, max_periods=2)
    model = random_model(rng, tree)
    strat = sample_zero_cost_by_price(model, seed=1, n_swaps=0)
    assert strat.swaps == []
    root_price = price(model, strat.initial,
                       StoppingTime.at_root(tree)).values[tree.root]
    assert root_price <= 1e-9
    strat = sample_zero_cost_by_price(model, seed=2, n_swaps=3)
    validate_zero_cost_by_price(model, strat)
    # swapping a claim against itself is self-financing exactly when the
    # spread vanishes: the ask of Z must not exceed the bid of Y
    horizon = StoppingTime.at_horizon(tree)
    y = random_claim(rng, tree, scale=1.0)
    flat = ScenarioModel.reference(tree)
    same = ZeroCostStrategy(initial=Claim.constant(horizon, 0.0),
                            swaps=[(StoppingTime.at_root(tree), y, y)])
    validate_zero_cost_by_price(flat, same)
    bid, ask = bid_ask(model, y, StoppingTime.at_root(tree))
    if ask.values[tree.root] > bid.values[tree.root] + 1e-9:
        with pytest.raises(TcppError):
            validate_zero_cost_by_price(model, same)


def test_verdict_agreement_random_instances():
    rng = np.random.default_rng(7)
    for i in range(30):
        tree = random_tree(rng, max_periods=2)
        if i % 2 == 0:
            model = random_model(rng, tree, include_reference=True)
            rep = nfl_verdict(model)
            assert rep.no_free_lunch
            assert rep.certificate.measure.is_equivalent()
        else:
            model, leaf = killed_leaf_model(rng, tree)
            rep = nfl_verdict(model)
            assert not rep.no_free_lunch
            assert rep.certificate.claim is not None
        oracles.nfl_verdict_by_price(model, seed=100 + i, n_samples=10, n_strategies=3)


def test_certificate_measure_zero_penalty_and_positive():
    rng = np.random.default_rng(9)
    tree = random_tree(rng, max_periods=2)
    model = random_model(rng, tree, include_reference=True)
    r = find_zero_penalty_equivalent_measure(model)
    pen = minimal_penalty(model, r, StoppingTime.at_root(tree),
                          StoppingTime.at_horizon(tree)).values[tree.root]
    assert pen <= 1e-9
    assert min(r.density.values()) > 0


def test_zero_cost_expectations_nonpositive_under_certificate():
    rng = np.random.default_rng(11)
    tree = random_tree(rng, max_periods=2)
    model = random_model(rng, tree, include_reference=True)
    r = find_zero_penalty_equivalent_measure(model)
    masses = r.leaf_masses(tree)
    for s in range(100):
        strat = sample_zero_cost_by_price(model, seed=s, n_swaps=s % 3)
        payoff = strat.payoff(tree)
        ev = float(masses @ [payoff.values[b] for b in tree.leaves])
        assert ev <= 1e-9


def test_nondegenerate_with_zero_penalty_dominated_measure_has_nfl():
    # non-degenerate model (joint supports cover) whose zero-penalty family
    # still mixes to an equivalent measure
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0), 0.0),
                                     MenuEntry((0.0, 1.0), 0.0),
                                     MenuEntry((0.5, 0.5), 0.7)]})
    from tcpp.scenario import check_nondegenerate
    assert check_nondegenerate(model).passed
    rep = nfl_verdict(model)
    assert rep.no_free_lunch


def test_positive_minimum_penalty_is_a_free_lunch():
    # no zero-penalty entry: the constant claim at the smallest penalty is
    # priced at 0.1 - 0.1 = 0
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), 0.1),
                                     MenuEntry((0.9, 0.1), 0.3)]})
    rep = nfl_verdict(model)
    assert not rep.no_free_lunch
    assert rep.certificate.claim.values == {1: 0.1, 2: 0.1}
    assert rep.checks.info["certificate_price"] <= 1e-9


def _near_zero_model(periods: int, penalty: float) -> ScenarioModel:
    """Binomial, every node's menu the midpoint at ``penalty`` and a skewed
    kernel at 0.5: the verdict counts ``penalty`` as zero when it is at
    most the feasibility tolerance."""
    tree = FiltrationTree.binomial(periods)
    return ScenarioModel(tree, {v: [MenuEntry((0.5, 0.5), penalty), MenuEntry((0.3, 0.7), 0.5)]
                                for v in tree.internal_nodes()})


@pytest.mark.parametrize("periods", [3, 6])
def test_penalties_counted_as_zero_add_up_within_the_corroboration(periods, tmp_path, capsys):
    # 9e-10 per node is below the tolerance 1e-9, so the measure certificate
    # is the midpoint, of minimal penalty periods x 9e-10; compared with the
    # bare tolerance, sums along a path fail: the penalty check at 3
    # periods, and at 6 also, in the sampled corroboration, 91 sandwich
    # pairs and zero-cost strategies of expectation up to (1 + 2 swaps) x 6
    # x 9e-10
    model = _near_zero_model(periods, 9e-10)
    report = nfl_verdict(model)
    assert report.no_free_lunch and report.checks.passed
    pen = report.checks.info["certificate_penalty"]
    assert 1e-9 < pen <= periods * 9e-10 * (1 + 1e-9)
    sampled = oracles.nfl_verdict_by_price(model)
    assert sampled.checks.passed and sampled.checks.info == report.checks.info
    measure = report.certificate.measure
    tree = model.tree
    for seed in range(3):
        x = random_claim(np.random.default_rng(seed), tree)
        assert tcpp.pricing.check_supermartingale(model, x, measure, seed=seed).passed
    # with a penalty of exactly 0 the slack is 0, and the answers are those of
    # the bare tolerance
    assert tcpp.pricing.zero_slack(_near_zero_model(periods, 0.0), 1e-9) == 0.0
    assert tcpp.pricing.zero_slack(model, 1e-9) == periods * 9e-10
    path = tmp_path / "near_zero.market"
    path.write_text(serialize_market(MarketData(tree, model)))
    assert main(["nfl", "--market", str(path)]) == 0
    assert "no-free-lunch" in capsys.readouterr().out


def test_a_penalty_above_the_tolerance_is_not_counted_as_zero():
    # 2e-9 per node is not counted as zero: no zero-penalty entry, so a
    # free lunch, and no slack
    model = _near_zero_model(3, 2e-9)
    assert tcpp.pricing.zero_slack(model, 1e-9) == 0.0
    assert not nfl_verdict(model).no_free_lunch
