"""Zero-cost strategies of the sampled corroboration in ``oracles``: the
sampler, the validator and its refusals, the nonpositive expectation the
certificate implies, the verdict against the oracle, and a verdict that
draws nothing."""
import sys

import numpy as np
import pytest

import oracles
from gen import killed_leaf_model, random_irregular_tree, random_model, random_tree
from oracles import ZeroCostStrategy
from tcpp.errors import TcppError
from tcpp.nfl import nfl_verdict
from tcpp.pricing import bid_ask, price, random_stopping_time, zero_slack
from tcpp.scenario import ScenarioModel
from tcpp.settings import DEFAULT
from tcpp.tree import Claim, FiltrationTree, StoppingTime, lift


def _model(i: int) -> ScenarioModel:
    rng = np.random.default_rng(4000 + i)
    tree = random_tree(rng) if i % 2 else random_irregular_tree(rng)
    return random_model(rng, tree, include_reference=i % 3 != 0)


@pytest.mark.parametrize("block", range(4))
def test_sampled_strategies_cost_nothing_and_lose_in_expectation_under_the_certificate(block):
    # 200 models in all, four strategies each: the initial claim is priced
    # at zero, every swap gives up exactly the ask-bid spread of its Y, and
    # where the verdict certifies a measure R, no strategy gains under R
    tol = DEFAULT.feasibility_tol
    for i in range(50 * block, 50 * block + 50):
        model = _model(i)
        tree = model.tree
        root = StoppingTime.at_root(tree)
        rep = nfl_verdict(model)
        masses = None if rep.certificate.measure is None else rep.certificate.measure.leaf_masses(tree)
        slack = zero_slack(model, tol)
        for k in range(4):
            seed, n_swaps = 7 * i + k, (i + k) % 4
            strat = oracles.sample_zero_cost_by_price(model, seed, n_swaps)
            assert len(strat.swaps) == n_swaps
            assert abs(price(model, strat.initial, root).values[tree.root]) <= 1e-12
            for tau, z, y in strat.swaps:
                bid, ask = bid_ask(model, y, tau)
                assert bid_ask(model, z, tau)[1].max_abs_diff(bid) <= 1e-12
            if masses is not None:
                ev = float(masses @ strat.payoff(tree).array)
                assert ev <= tol + (1 + 2 * n_swaps) * slack, (i, k, ev)


def test_hand_built_strategies_at_other_cuts_are_refused_exactly_when_nudged():
    # claims at the swap time or later, some nudged off self-financing: the
    # validator passes a strategy exactly when none of its swaps is nudged
    refused = passed = 0
    for i in range(60):
        model = _model(i)
        tree = model.tree
        rng = np.random.default_rng(900 + i)
        tau = random_stopping_time(tree, rng)
        later = random_stopping_time(tree, rng, lo=tau)
        y = Claim(later, rng.uniform(0.0, 1.0, len(later.cut)))
        bid, ask = bid_ask(model, y, tau)
        nudge = float(rng.choice([0.0, 0.0, 1e-3]))
        z = y - lift(tree, ask - bid, later) + nudge
        x0 = Claim(tau, rng.uniform(-1.0, 0.0, len(tau.cut)))
        strat = ZeroCostStrategy(x0, [(tau, z, y)])
        if nudge:
            with pytest.raises(TcppError, match=r"^swap not self-financing at atom \d+$"):
                oracles.validate_zero_cost_by_price(model, strat)
            refused += 1
        else:
            oracles.validate_zero_cost_by_price(model, strat)
            passed += 1
    assert refused > 0 and passed > 0


def _nfl_model() -> ScenarioModel:
    rng = np.random.default_rng(5)
    return random_model(rng, FiltrationTree.binomial(3), include_reference=True)


def test_a_positive_initial_price_is_refused_with_its_price():
    model = _nfl_model()
    bad = ZeroCostStrategy(Claim.constant(StoppingTime.at_horizon(model.tree), 0.5))
    with pytest.raises(TcppError, match=r"^initial claim has positive root price 0\.5"):
        oracles.validate_zero_cost_by_price(model, bad)


def test_decreasing_swap_times_are_refused():
    model = _nfl_model()
    tree = model.tree
    zero = Claim.constant(StoppingTime.at_horizon(tree), 0.0)
    bad = ZeroCostStrategy(zero, [(StoppingTime.at_time(tree, 1), zero, zero),
                                  (StoppingTime.at_time(tree, 2), zero, zero),
                                  (StoppingTime.at_time(tree, 1), zero, zero)])
    with pytest.raises(TcppError, match=r"^swap times must be nondecreasing$"):
        oracles.validate_zero_cost_by_price(model, bad)


def test_a_swap_that_is_not_self_financing_is_named_by_its_atom():
    model = _nfl_model()
    tree = model.tree
    horizon = StoppingTime.at_horizon(tree)
    zero, one = Claim.constant(horizon, 0.0), Claim.constant(horizon, 1.0)
    bad = ZeroCostStrategy(zero, [(StoppingTime.at_time(tree, 1), zero, zero),
                                  (StoppingTime.at_time(tree, 2), one, zero)])
    first = min(tree.nodes_at(2))
    with pytest.raises(TcppError, match=rf"^swap not self-financing at atom {first}$"):
        oracles.validate_zero_cost_by_price(model, bad)


def test_a_swap_before_its_claims_time_is_refused():
    model = _nfl_model()
    tree = model.tree
    early = Claim.constant(StoppingTime.at_time(tree, 1), 0.0)
    zero = Claim.constant(StoppingTime.at_horizon(tree), 0.0)
    bad = ZeroCostStrategy(zero, [(StoppingTime.at_time(tree, 2), early, early)])
    with pytest.raises(TcppError, match=r"^pricing time must precede"):
        oracles.validate_zero_cost_by_price(model, bad)


def test_the_payoff_lifts_every_swap_to_the_horizon():
    """A swap of a constant claim for itself at time 1 costs nothing and
    pays nothing; its claims sit at time 1, not at the horizon."""
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    t1, horizon = StoppingTime.at_time(tree, 1), StoppingTime.at_horizon(tree)
    one = Claim.constant(t1, 1.0)
    strat = ZeroCostStrategy(Claim.constant(horizon, 0.0), [(t1, one, one)])
    oracles.validate_zero_cost_by_price(model, strat)
    assert strat.payoff(tree) == Claim.constant(horizon, 0.0)
    # X0 at time 1 and a swap whose Z and Y sit at different cuts
    z = Claim(t1, [0.25, -0.5])
    y = Claim(horizon, [0.5, 1.0, 2.0, 4.0])
    x0 = Claim(t1, [1.0, 3.0])
    got = ZeroCostStrategy(x0, [(t1, z, y)]).payoff(tree)
    assert got == Claim(horizon, [1.25 - 0.5, 1.25 - 1.0, 2.5 - 2.0, 2.5 - 4.0])


def _report_fields(rep):
    cert = rep.certificate
    return (rep.no_free_lunch, cert.kind,
            None if cert.measure is None else dict(cert.measure.density),
            None if cert.claim is None else cert.claim,
            rep.checks.passed, dict(rep.checks.info))


def test_verdict_unchanged_on_killed_leaf_and_nfl_models():
    rng = np.random.default_rng(31)
    for i in range(24):
        tree = random_tree(rng, max_periods=3) if i % 3 else random_irregular_tree(rng)
        if i % 2:
            model = killed_leaf_model(rng, tree)[0]
        else:
            model = random_model(rng, tree, include_reference=True)
        rep = nfl_verdict(model)
        want = oracles.nfl_verdict_by_price(model, seed=500 + i, n_samples=12, n_strategies=6)
        assert _report_fields(rep) == _report_fields(want)
        assert rep.no_free_lunch == (i % 2 == 0)
        assert set(rep.checks.info) == ({"certificate_penalty", "min_density"} if i % 2 == 0
                                        else {"certificate_price", "iv_refuted_by"})


def test_the_verdict_draws_no_random_number(monkeypatch):
    # the verdict decides by its certificate: it samples no stopping time
    # and builds no generator, and leaves numpy's global one as it was
    rng = np.random.default_rng(77)
    models = ([random_model(rng, random_irregular_tree(rng), include_reference=True)
               for _ in range(6)]
              + [killed_leaf_model(rng, random_tree(rng))[0] for _ in range(6)])

    def refuse(*args, **kwargs):
        raise AssertionError("nfl_verdict drew a random number")
    for name, module in list(sys.modules.items()):
        if name.startswith("tcpp") and hasattr(module, "random_stopping_time"):
            monkeypatch.setattr(module, "random_stopping_time", refuse)
    for name in ("default_rng", "Generator", "RandomState", "SeedSequence"):
        monkeypatch.setattr(np.random, name, refuse)
    state = np.random.get_state()
    verdicts = [nfl_verdict(model).no_free_lunch for model in models]
    assert verdicts == [True] * 6 + [False] * 6
    after = np.random.get_state()
    assert after[0] == state[0] and (after[1] == state[1]).all() and after[2:] == state[2:]
