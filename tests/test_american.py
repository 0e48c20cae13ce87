"""American exercise: the Snell induction against the stopping-time
enumeration it replaced, on every kind of penalty."""
import math

import numpy as np
import pytest

import oracles
from gen import random_model, random_tree
from tcpp.errors import TcppError
from tcpp.pricing import american_price, backward_pass, price, random_stopping_time
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.tree import Claim, FiltrationTree, StoppingTime

KINDS = ("sublinear", "convex", "positive minimum", "negative")


def shifted(model: ScenarioModel, shift: float) -> ScenarioModel:
    return ScenarioModel(model.tree, {v: [MenuEntry(e.kernel, e.penalty + shift)
                                          for e in entries]
                                      for v, entries in model.menus.items()})


def instance(rng: np.random.Generator, k: int):
    kind = KINDS[k % len(KINDS)]
    # binomial up to H=3 and up to trinomial H=2: at most 26 and 9 stop sets
    # per root, so the enumeration stays cheap
    tree = (random_tree(rng, max_periods=3, max_branch=2) if k % 8 < 4
            else random_tree(rng, max_periods=2, max_branch=3))
    model = random_model(rng, tree, sublinear=kind == "sublinear")
    if kind == "positive minimum":
        model = shifted(model, float(rng.uniform(0.01, 0.3)))
    elif kind == "negative":
        model = shifted(model, -float(rng.uniform(0.01, 0.3)))
    payoff = {v: float(rng.uniform(-1.0, 2.0)) for v in range(tree.n_nodes)}
    root, t1 = StoppingTime.at_root(tree), StoppingTime.at_time(tree, 1)
    tau = StoppingTime.at_horizon(tree) if k % 3 else random_stopping_time(tree, rng, lo=t1)
    nu = root if rng.random() < 0.5 else random_stopping_time(tree, rng, lo=t1, hi=tau)
    return kind, model, payoff, nu, tau


def test_snell_induction_matches_the_enumeration():
    rng = np.random.default_rng(505)
    seen = {(kind, at_root): 0 for kind in KINDS for at_root in (True, False)}
    for k in range(320):
        kind, model, payoff, nu, tau = instance(rng, k)
        tree = model.tree
        res = american_price(model, payoff, nu, tau)
        want, _ = oracles.american_enumerated(model, payoff, nu, tau)
        assert res.value.at == nu
        assert res.value.max_abs_diff(want) <= 1e-9, (k, kind)
        for a in nu.cut:
            rest = tuple(nu.cut - {a})
            stop = res.optimal[a] + rest
            exercised = price(model, Claim(StoppingTime.of(stop),
                                           {v: payoff[v] for v in stop}), nu)
            assert abs(exercised.values[a] - res.value.values[a]) <= 1e-12, (k, kind, a)
        seen[kind, nu.cut == {tree.root}] += 1
    assert min(seen.values()) >= 20, seen


def test_floor_applies_above_the_cut_only():
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    horizon = StoppingTime.at_horizon(tree)
    rows = np.full((tree.n_nodes, 2), np.nan)
    rows[list(horizon.cut)] = [1.0, -1.0]
    floor = np.zeros(tree.n_nodes)
    got = backward_pass(model, horizon, rows, floor)
    for b in horizon.cut:
        assert list(got[b]) == [1.0, -1.0]
    for v in tree.internal_nodes():
        assert list(got[v]) == [1.0, 0.0]
    no_floor = np.full(tree.n_nodes, -np.inf)
    assert backward_pass(model, horizon, rows, no_floor)[0].tolist() == [1.0, -1.0]


@pytest.mark.parametrize("nu, tau", [((0, 1), (3, 4, 5, 6)), ((0,), (1, 3, 4, 5, 6)),
                                     ((0,), (3, 4))])
def test_cuts_are_validated(nu, tau):
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    payoff = {v: float(v) for v in range(tree.n_nodes)}
    with pytest.raises(TcppError, match="meets the cut"):
        american_price(model, payoff, StoppingTime.of(nu), StoppingTime.of(tau))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payoff_names_the_node(bad):
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    payoff = {v: 1.0 for v in range(tree.n_nodes)}
    payoff[4] = bad
    with pytest.raises(TcppError, match="node 4"):
        american_price(model, payoff, StoppingTime.at_root(tree),
                       StoppingTime.at_horizon(tree))
