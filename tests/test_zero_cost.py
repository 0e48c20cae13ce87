"""Zero-cost strategies: the stacked sampler and validator against the
one-claim-per-pass oracle, their failure messages, and their pass count."""
import numpy as np
import pytest

import oracles
import tcpp.nfl
from gen import killed_leaf_model, random_irregular_tree, random_model, random_tree
from tcpp.errors import TcppError
from tcpp.nfl import (ZeroCostStrategy, nfl_verdict, sample_zero_cost,
                      sample_zero_cost_batch, validate_zero_cost_batch)
from tcpp.pricing import bid_ask, random_stopping_time
from tcpp.scenario import ScenarioModel
from tcpp.tree import Claim, FiltrationTree, StoppingTime, lift


def _model(i: int) -> ScenarioModel:
    rng = np.random.default_rng(4000 + i)
    tree = random_tree(rng) if i % 2 else random_irregular_tree(rng)
    return random_model(rng, tree, include_reference=i % 3 != 0)


def _assert_same(tree, got: ZeroCostStrategy, want: ZeroCostStrategy) -> None:
    assert got.initial.at == want.initial.at
    assert got.initial.max_abs_diff(want.initial) <= 1e-12
    assert len(got.swaps) == len(want.swaps)
    for (tau, z, y), (tau_w, z_w, y_w) in zip(got.swaps, want.swaps):
        assert tau == tau_w
        assert z.at == z_w.at and z.max_abs_diff(z_w) <= 1e-12
        assert y.at == y_w.at and y.max_abs_diff(y_w) <= 1e-12
    assert got.payoff(tree).max_abs_diff(want.payoff(tree)) <= 1e-12


@pytest.mark.parametrize("block", range(4))
def test_stacked_sampler_matches_one_claim_per_pass(block):
    # 200 models in all, each sampled alone and inside a batch of four
    for i in range(50 * block, 50 * block + 50):
        model = _model(i)
        draws = [(7 * i + k, (i + k) % 4) for k in range(4)]
        batch = sample_zero_cost_batch(model, draws)
        for (seed, n_swaps), strat in zip(draws, batch):
            want = oracles.sample_zero_cost_by_price(model, seed, n_swaps)
            _assert_same(model.tree, strat, want)
        seed, n_swaps = draws[0]
        _assert_same(model.tree, sample_zero_cost(model, seed, n_swaps), batch[0])


def test_nfl_reads_the_sampled_strategies_as_columns_bit_for_bit(monkeypatch):
    # the X0, Y and Z columns that nfl_verdict reads, for its own draws,
    # against the claims of sample_zero_cost_batch and of the construction
    # claim by claim
    columns, seen = tcpp.nfl._zero_cost_columns, []

    def spy(model, draws):
        out = columns(model, draws)
        seen.append((list(draws), [a.copy() for a in out[:3]]))
        return out
    monkeypatch.setattr(tcpp.nfl, "_zero_cost_columns", spy)
    swaps = 0
    for i in range(24):
        rng = np.random.default_rng(4700 + i)
        tree = random_tree(rng) if i % 2 else random_irregular_tree(rng)
        model = random_model(rng, tree, include_reference=True)
        seen.clear()
        assert nfl_verdict(model, seed=i, n_samples=4, n_strategies=6).no_free_lunch
        [(draws, (x0, y, z))] = seen
        got, want = sample_zero_cost_batch(model, draws), oracles.sample_zero_cost_claims(model, draws)
        assert len(got) == len(want) == x0.shape[1] == len(draws)
        k = 0
        for j, (strat, ref) in enumerate(zip(got, want)):
            assert (x0[:, j].tobytes() == strat.initial.array.tobytes()
                    == ref.initial.array.tobytes())
            assert len(strat.swaps) == len(ref.swaps) == draws[j][1]
            for (tau, zc, yc), (tau_r, zr, yr) in zip(strat.swaps, ref.swaps):
                assert tau == tau_r
                assert z[:, k].tobytes() == zc.array.tobytes() == zr.array.tobytes()
                assert y[:, k].tobytes() == yc.array.tobytes() == yr.array.tobytes()
                k += 1
        assert k == y.shape[1] == z.shape[1]
        swaps += k
    assert swaps >= 100, swaps


def test_hand_built_strategies_at_other_cuts_are_judged_as_one_claim_per_pass():
    # claims at the swap time or later, some nudged off self-financing: the
    # batch raises exactly when one of its strategies fails alone
    for i in range(60):
        model = _model(i)
        tree = model.tree
        rng = np.random.default_rng(900 + i)
        strats = []
        for _ in range(3):
            tau = random_stopping_time(tree, rng)
            later = random_stopping_time(tree, rng, lo=tau)
            y = Claim(later, rng.uniform(0.0, 1.0, len(later.cut)))
            bid, ask = bid_ask(model, y, tau)
            z = y - lift(tree, ask - bid, later) + float(rng.choice([0.0, 0.0, 1e-3]))
            x0 = Claim(tau, rng.uniform(-1.0, 0.0, len(tau.cut)))
            strats.append(ZeroCostStrategy(x0, [(tau, z, y)]))
        failures = []
        for strat in strats:
            try:
                oracles.validate_zero_cost_by_price(model, strat)
            except TcppError:
                failures.append(strat)
        if failures:
            with pytest.raises(TcppError):
                validate_zero_cost_batch(model, strats)
        else:
            validate_zero_cost_batch(model, strats)


def test_the_payoff_lifts_every_swap_to_the_horizon():
    """A swap of a constant claim for itself at time 1 costs nothing and
    pays nothing; its claims sit at time 1, not at the horizon."""
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    t1, horizon = StoppingTime.at_time(tree, 1), StoppingTime.at_horizon(tree)
    one = Claim.constant(t1, 1.0)
    strat = ZeroCostStrategy(Claim.constant(horizon, 0.0), [(t1, one, one)])
    validate_zero_cost_batch(model, [strat])
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
        rep = nfl_verdict(model, seed=500 + i, n_samples=12, n_strategies=6)
        want = oracles.nfl_verdict_by_price(model, seed=500 + i, n_samples=12, n_strategies=6)
        assert _report_fields(rep) == _report_fields(want)
        assert rep.no_free_lunch == (i % 2 == 0)
        assert set(rep.checks.info) == ({"certificate_penalty", "min_density"} if i % 2 == 0
                                        else {"certificate_price", "iv_refuted_by"})


def _failing_batch(bad: ZeroCostStrategy, model: ScenarioModel) -> list[ZeroCostStrategy]:
    good = sample_zero_cost_batch(model, [(s, 2) for s in range(4)])
    return good[:2] + [bad] + good[2:]


def _nfl_model() -> ScenarioModel:
    rng = np.random.default_rng(5)
    return random_model(rng, FiltrationTree.binomial(3), include_reference=True)


def test_a_positive_initial_price_is_named_by_strategy_and_atom():
    model = _nfl_model()
    tree = model.tree
    bad = ZeroCostStrategy(Claim.constant(StoppingTime.at_horizon(tree), 0.5))
    with pytest.raises(TcppError, match=rf"^strategy 2 initial claim atom {tree.root}: "
                                        r"positive root price 0\.5"):
        validate_zero_cost_batch(model, _failing_batch(bad, model))


def test_decreasing_swap_times_are_named_by_strategy_swap_and_atom():
    model = _nfl_model()
    tree = model.tree
    zero = Claim.constant(StoppingTime.at_horizon(tree), 0.0)
    bad = ZeroCostStrategy(zero, [(StoppingTime.at_time(tree, 1), zero, zero),
                                  (StoppingTime.at_time(tree, 2), zero, zero),
                                  (StoppingTime.at_time(tree, 1), zero, zero)])
    first = min(tree.nodes_at(1))
    with pytest.raises(TcppError, match=rf"^strategy 2 swap 2 atom {first}: "
                                        r"swap times must be nondecreasing"):
        validate_zero_cost_batch(model, _failing_batch(bad, model))


def test_a_swap_that_is_not_self_financing_is_named_by_strategy_swap_and_atom():
    model = _nfl_model()
    tree = model.tree
    horizon = StoppingTime.at_horizon(tree)
    zero, one = Claim.constant(horizon, 0.0), Claim.constant(horizon, 1.0)
    bad = ZeroCostStrategy(zero, [(StoppingTime.at_time(tree, 1), zero, zero),
                                  (StoppingTime.at_time(tree, 2), one, zero)])
    first = min(tree.nodes_at(2))
    with pytest.raises(TcppError, match=rf"^strategy 2 swap 1 atom {first}: "
                                        r"swap not self-financing, ask of Z above bid of Y by 1\.0"):
        validate_zero_cost_batch(model, _failing_batch(bad, model))


def test_a_swap_before_its_claims_time_is_named_by_strategy_swap_and_atom():
    model = _nfl_model()
    tree = model.tree
    early = Claim.constant(StoppingTime.at_time(tree, 1), 0.0)
    zero = Claim.constant(StoppingTime.at_horizon(tree), 0.0)
    bad = ZeroCostStrategy(zero, [(StoppingTime.at_time(tree, 2), early, early)])
    first = min(tree.nodes_at(2))
    with pytest.raises(TcppError, match=rf"^strategy 2 swap 0 atom {first}: "
                                        r"pricing time must precede"):
        validate_zero_cost_batch(model, _failing_batch(bad, model))


@pytest.mark.parametrize("n_strategies", [1, 20])
def test_the_strategies_cost_two_passes_and_no_price_call(monkeypatch, n_strategies):
    model = _nfl_model()
    calls = {"backward_pass": 0, "price": 0}

    def counting(name):
        inner = getattr(tcpp.nfl, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(tcpp.nfl, name, counting(name))
    assert nfl_verdict(model, n_samples=6, n_strategies=0).no_free_lunch
    assert calls == {"backward_pass": 2, "price": 0}        # the sandwich's ask and bid
    calls.update(backward_pass=0)
    assert nfl_verdict(model, n_samples=6, n_strategies=n_strategies).no_free_lunch
    assert calls == {"backward_pass": 2 + 2, "price": 0}
