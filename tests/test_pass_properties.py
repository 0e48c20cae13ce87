"""Properties of the backward pass on node-indexed arrays, over random
models on regular, irregular and relabelled trees and random cuts."""
import numpy as np
from hypothesis import HealthCheck, given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from gen import random_claim, random_irregular_tree, random_model, random_tree, relabelled
from tcpp.pricing import backward_pass, chain_prices, price, random_stopping_time
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.tree import StoppingTime

PROPERTY = hsettings(derandomize=True, database=None, max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def instance(seed: int):
    rng = np.random.default_rng(seed)
    tree = random_irregular_tree(rng) if seed % 2 else random_tree(rng)
    if seed % 3 == 2:
        tree = relabelled(tree, rng)
    return rng, tree, random_model(rng, tree, max_entries=3)


def close(got, want, tol: float = 1e-12) -> bool:
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_columns_equal_one_column_passes(seed):
    rng, tree, model = instance(seed)
    at = random_stopping_time(tree, rng)
    values = rng.uniform(-2.0, 2.0, (tree.n_nodes, 5))
    stacked = backward_pass(model, at, values)
    for j in range(values.shape[1]):
        alone = backward_pass(model, at, values[:, j:j + 1])
        assert np.array_equal(np.isnan(stacked[:, j:j + 1]), np.isnan(alone))
        above = ~np.isnan(alone[:, 0])
        assert close(stacked[above, j], alone[above, 0])


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_cash_is_priced_at_its_value(seed):
    rng, tree, model = instance(seed)
    x = random_claim(rng, tree, random_stopping_time(tree, rng))
    sigma = random_stopping_time(tree, rng, hi=x.at)
    c = float(rng.uniform(-5.0, 5.0))
    base, shifted = price(model, x, sigma).values, price(model, x + c, sigma).values
    for a in sigma.cut:
        assert abs(shifted[a] - (base[a] + c)) <= 1e-12 * (1.0 + abs(c) + abs(base[a]))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_direct_and_composed_prices_agree(seed):
    rng, tree, model = instance(seed)
    tau = random_stopping_time(tree, rng)
    sigma = random_stopping_time(tree, rng, hi=tau)
    nu = random_stopping_time(tree, rng, hi=sigma)
    xs = [random_claim(rng, tree, tau) for _ in range(4)]
    direct, composed = chain_prices(model, nu, sigma, tau, xs)
    assert direct.shape == composed.shape == (len(nu.cut), len(xs))
    assert close(composed, direct)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_a_floor_of_minus_infinity_is_no_floor(seed):
    rng, tree, model = instance(seed)
    for at in (random_stopping_time(tree, rng), StoppingTime.at_horizon(tree)):
        values = rng.uniform(-2.0, 2.0, (tree.n_nodes, 3))
        free = backward_pass(model, at, values)
        floored = backward_pass(model, at, values, np.full(tree.n_nodes, -np.inf))
        assert np.array_equal(free, floored, equal_nan=True)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_the_argmax_names_an_entry_worth_the_nodes_value(seed):
    # the entry's value as the pass forms it, so the two agree to the bit;
    # asking for the argmax leaves the values as they are, to the bit
    rng, tree, model = instance(seed)
    at = random_stopping_time(tree, rng)
    values = rng.uniform(-2.0, 2.0, (tree.n_nodes, 3))
    best = np.full(values.shape, -1)
    out = backward_pass(model, at, values, argmax=best)
    assert out.tobytes() == backward_pass(model, at, values).tobytes()
    for nodes, kids, kernels, penalties in model.steps(at.cut):
        entry = best[nodes]
        assert ((entry >= 0) & (entry < model.menu_sizes[nodes, None])).all()
        cand = np.einsum("gek,gkm->gem", kernels, out[kids]) - penalties[:, :, None]
        assert np.take_along_axis(cand, entry[:, None], 1)[:, 0].tobytes() == out[nodes].tobytes()
    assert (best[list(at.cut)] == -1).all() and (best[np.isnan(out[:, 0])] == -1).all()


def test_on_ties_the_argmax_is_the_first_entry_never_a_padding_copy():
    # a node's menu is either [k1 at penalty 1, k0, k0], whose maximum is
    # entry 1, tied with the copy at 2, or [k0] alone, padded with copies of
    # it to the width of its level group, whose maximum is entry 0; on
    # values in [-0.4, 0.4], or all zero, the penalty keeps k1 below k0
    rng = np.random.default_rng(11)
    for seed in range(30):
        tree = random_irregular_tree(rng) if seed % 2 else random_tree(rng)
        want = np.full((tree.n_nodes, 1), -1)
        menus = {}
        for v in tree.internal_nodes():
            k0, k1 = (tuple(rng.dirichlet(np.ones(tree.arity[v]))) for _ in range(2))
            long = rng.random() < 0.5
            menus[v] = ([MenuEntry(k1, 1.0), MenuEntry(k0, 0.0), MenuEntry(k0, 0.0)] if long
                        else [MenuEntry(k0, 0.0)])
            want[v] = 1 if long else 0
        model = ScenarioModel(tree, menus)
        horizon = StoppingTime.at_horizon(tree)
        for values in (rng.uniform(-0.4, 0.4, (tree.n_nodes, 1)), np.zeros((tree.n_nodes, 1))):
            best = np.full((tree.n_nodes, 1), -1)
            backward_pass(model, horizon, values, argmax=best)
            assert (best == want).all(), seed
