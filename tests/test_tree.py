"""Event-tree, stopping-time, claim, and measure behavior."""
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from gen import random_claim, random_tree
from tcpp.errors import ForeignNode, MassMismatch, TcppError
from tcpp.nfl import nfl_verdict
from tcpp.scenario import MenuEntry, ScenarioModel
from tcpp.tree import (Claim, FiltrationTree, Measure, StoppingTime,
                       conditional_expectation, essential_supremum, lift,
                       paste_measures, precedes, sigma_algebra_nodes,
                       validate_stopping_time)


def test_tree_invariants_enforced():
    with pytest.raises(TcppError):
        FiltrationTree([0, 1, 1], [None, 0, 0], {1: 0.5, 2: 0.6})  # weights > 1
    with pytest.raises(TcppError):
        FiltrationTree([0, 1, 1], [None, 0, 0], {1: 1.0, 2: 0.0})  # zero weight
    with pytest.raises(TcppError):
        FiltrationTree([0, 2, 2], [None, 0, 0], {1: 0.5, 2: 0.5})  # time jump
    with pytest.raises(TcppError):
        FiltrationTree([0, 1, 0], [None, 0, None], {1: 1.0})       # two roots


def test_sigma_algebra_nodes_trivial_cases():
    tree = FiltrationTree.binomial(2)
    assert sigma_algebra_nodes(tree, StoppingTime.at_root(tree)) == frozenset({0})
    assert sigma_algebra_nodes(tree, StoppingTime.at_horizon(tree)) == frozenset(tree.leaves)


def test_sigma_algebra_random_antichain():
    tree = FiltrationTree.binomial(2)
    # nodes: 0; 1=u, 2=d; 3,4 under u; 5,6 under d
    mixed = StoppingTime.of([1, 5, 6])
    assert sigma_algebra_nodes(tree, mixed) == frozenset({1, 5, 6})
    # every root-to-leaf path hits the cut exactly once
    for leaf in tree.leaves:
        assert sum(1 for v in tree.path(leaf) if v in mixed.cut) == 1


def test_stopping_time_rejects_non_antichain_and_foreign():
    tree = FiltrationTree.binomial(2)
    with pytest.raises(TcppError):
        validate_stopping_time(tree, StoppingTime.of([1, 3, 5, 6]))  # 3 under 1
    with pytest.raises(TcppError):
        validate_stopping_time(tree, StoppingTime.of([1]))           # misses d-paths
    with pytest.raises(ForeignNode):
        validate_stopping_time(tree, StoppingTime.of([99]))


def test_precedes_partial_order():
    tree = FiltrationTree.binomial(2)
    root = StoppingTime.at_root(tree)
    t1 = StoppingTime.at_time(tree, 1)
    mixed = StoppingTime.of([1, 5, 6])
    assert precedes(tree, root, mixed)
    assert precedes(tree, t1, mixed)
    assert not precedes(tree, mixed, t1)


def test_conditional_expectation_constant_and_measurable():
    tree = FiltrationTree.binomial(2)
    q = Measure.reference(tree)
    horizon = StoppingTime.at_horizon(tree)
    c = Claim.constant(horizon, 4.2)
    e = conditional_expectation(tree, q, c, StoppingTime.at_root(tree))
    assert abs(e.values[0] - 4.2) <= 1e-12
    x = random_claim(np.random.default_rng(0), tree)
    assert conditional_expectation(tree, q, x, x.at).allclose(x, 1e-12)


def test_conditional_expectation_binomial_example():
    tree = FiltrationTree.binomial(1)
    q = Measure({1: (1 / 3) / 0.5, 2: (2 / 3) / 0.5})
    x = Claim(StoppingTime.at_horizon(tree), {1: 3.0, 2: 0.0})
    e = conditional_expectation(tree, q, x, StoppingTime.at_root(tree))
    assert abs(e.values[0] - 1.0) <= 1e-12


def test_conditional_expectation_zero_mass_marks_nan():
    tree = FiltrationTree.binomial(1)
    q = Measure({1: 2.0, 2: 0.0})
    x = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 5.0})
    e = conditional_expectation(tree, q, x, StoppingTime.at_horizon(tree))
    assert e.values[1] == 1.0
    assert math.isnan(e.values[2])


def test_tower_property_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        tree = random_tree(rng)
        density = rng.uniform(0.1, 2.0, size=len(tree.leaves))
        w = np.array([tree.leaf_weights[v] for v in tree.leaves])
        density /= float(density @ w)
        q = Measure({v: float(density[i]) for i, v in enumerate(tree.leaves)})
        x = random_claim(rng, tree)
        ts = sorted(rng.choice(tree.horizon + 1, size=2, replace=True))
        nu = StoppingTime.at_time(tree, int(ts[0]))
        sigma = StoppingTime.at_time(tree, int(ts[1]))
        inner = conditional_expectation(tree, q, x, sigma)
        lhs = conditional_expectation(tree, q, inner, nu)
        rhs = conditional_expectation(tree, q, x, nu)
        assert lhs.max_abs_diff(rhs) <= 1e-12


def test_essential_supremum():
    tree = FiltrationTree.binomial(1)
    at = StoppingTime.at_horizon(tree)
    a = Claim(at, {1: 1.0, 2: 0.0})
    b = Claim(at, {1: 0.0, 2: 1.0})
    assert essential_supremum(tree, [a]).allclose(a)
    sup = essential_supremum(tree, [a, b])
    assert sup.values == {1: 1.0, 2: 1.0}
    with pytest.raises(TcppError):
        essential_supremum(tree, [])


def test_paste_idempotent_and_trivial_past():
    rng = np.random.default_rng(5)
    tree = random_tree(rng)
    density = rng.uniform(0.1, 2.0, size=len(tree.leaves))
    w = np.array([tree.leaf_weights[v] for v in tree.leaves])
    density /= float(density @ w)
    q = Measure({v: float(density[i]) for i, v in enumerate(tree.leaves)})
    sigma = StoppingTime.at_time(tree, min(1, tree.horizon))
    pasted = paste_measures(tree, q, q, sigma)
    assert max(abs(pasted.density[v] - q.density[v]) for v in tree.leaves) <= 1e-12
    p = Measure.reference(tree)
    assert max(abs(paste_measures(tree, p, q, StoppingTime.at_root(tree)).density[v]
                   - q.density[v]) for v in tree.leaves) <= 1e-12


def test_paste_factorization_on_binomial():
    tree = FiltrationTree.binomial(2)
    p = Measure.reference(tree)
    q = Measure({3: 1.6, 4: 0.4, 5: 0.8, 6: 1.2})
    sigma = StoppingTime.at_time(tree, 1)
    r = paste_measures(tree, p, q, sigma)
    # marginals at time 1 are P's, second-period kernels are Q's
    for node in (1, 2):
        assert abs(r.mass(tree, node) - p.mass(tree, node)) <= 1e-12
        for child in tree.children[node]:
            lhs = r.mass(tree, child) / r.mass(tree, node)
            rhs = q.mass(tree, child) / q.mass(tree, node)
            assert abs(lhs - rhs) <= 1e-12


def test_paste_restriction_exact_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        tree = random_tree(rng)
        def rand_measure():
            d = rng.uniform(0.05, 2.0, size=len(tree.leaves))
            w = np.array([tree.leaf_weights[v] for v in tree.leaves])
            d /= float(d @ w)
            return Measure({v: float(d[i]) for i, v in enumerate(tree.leaves)})
        q1, q2 = rand_measure(), rand_measure()
        t = int(rng.integers(0, tree.horizon + 1))
        sigma = StoppingTime.at_time(tree, t)
        r = paste_measures(tree, q1, q2, sigma)
        for a in sigma.cut:
            assert abs(r.mass(tree, a) - q1.mass(tree, a)) <= 1e-12


def test_paste_mass_mismatch():
    tree = FiltrationTree.binomial(1)
    q1 = Measure.reference(tree)
    q2 = Measure({1: 2.0, 2: 0.0})
    with pytest.raises(MassMismatch):
        paste_measures(tree, q1, q2, StoppingTime.at_horizon(tree))


def test_claim_arithmetic_takes_any_real_scalar():
    tree = FiltrationTree.binomial(1)
    x = Claim(StoppingTime.at_horizon(tree), {1: 1.5, 2: -2.0})
    for c in (1, 1.0, np.int64(1), np.float64(1.0), Fraction(1), True):
        assert (x + c).values == {1: 2.5, 2: -1.0}
        assert (x - c).values == {1: 0.5, 2: -3.0}
        assert (c * x).values == x.values
        assert {type(v) for v in (x + c).values.values()} == {float}
    assert (np.float64(2.0) * x).values == {1: 3.0, 2: -4.0}
    for bad in ("1", None, [1.0, 2.0], np.array([1.0, 2.0]), 1j):
        with pytest.raises(TcppError):
            x + bad
        with pytest.raises(TcppError):
            x - bad
        with pytest.raises(TcppError):
            bad * x
    with pytest.raises(TcppError, match="common stopping time"):
        x + Claim(StoppingTime.at_root(tree), {0: 1.0})


def test_lift_and_claim_algebra():
    tree = FiltrationTree.binomial(2)
    z = Claim(StoppingTime.at_time(tree, 1), {1: 2.0, 2: -1.0})
    lifted = lift(tree, z, StoppingTime.at_horizon(tree))
    assert lifted.values == {3: 2.0, 4: 2.0, 5: -1.0, 6: -1.0}
    assert (2.0 * z - z).allclose(z, 0.0)
    with pytest.raises(TcppError):
        Claim(StoppingTime.at_time(tree, 1), {1: 2.0})  # missing cut node


def test_the_horizon_is_one_cut_per_tree_and_keeps_its_mark():
    tree, other = FiltrationTree.binomial(3), FiltrationTree.binomial(3)
    horizon = StoppingTime.at_horizon(tree)
    assert StoppingTime.at_horizon(tree) is horizon
    assert StoppingTime.at_horizon(other) is not horizon and StoppingTime.at_horizon(other) == horizon
    assert horizon.cut == frozenset(tree.leaves)
    validate_stopping_time(tree, horizon)
    assert "_valid_on" not in StoppingTime.at_horizon(tree).__dict__


def test_a_tree_is_freed_without_the_cycle_collector_once_its_cuts_are_checked():
    # a tree that held a cut marked with that tree would live until the
    # cycle collector ran, arrays and all, after every command
    gc.disable()
    try:
        tree = FiltrationTree.binomial(3)
        cuts = [StoppingTime.at_root(tree), StoppingTime.of(tree.leaves),
                StoppingTime.at_time(tree, 2), StoppingTime.at_horizon(tree)]
        for tau in cuts:
            validate_stopping_time(tree, tau)
        probe = weakref.ref(tree)
        del tree, cuts, tau
        assert probe() is None
        # and once a whole verdict has priced, sampled and checked on it
        tree = FiltrationTree.binomial(2)
        model = ScenarioModel(tree, {v: [MenuEntry((0.5, 0.5), 0.0), MenuEntry((0.7, 0.3), 0.1)]
                                     for v in tree.internal_nodes()})
        assert nfl_verdict(model, n_samples=4, n_strategies=3).no_free_lunch
        probe = weakref.ref(tree)
        del tree, model
        assert probe() is None
    finally:
        gc.enable()


def test_a_cut_validated_on_one_tree_is_checked_on_another():
    binomial, trinomial, big = (FiltrationTree.binomial(2), FiltrationTree.trinomial(2),
                                FiltrationTree.binomial(4))
    cut = StoppingTime.of([1, 2])
    validate_stopping_time(binomial, cut)
    validate_stopping_time(binomial, cut)       # marked: returns at once
    assert cut == StoppingTime.of([1, 2]) and hash(cut) == hash(StoppingTime.of([1, 2]))
    with pytest.raises(TcppError, match="meets the cut 0 times"):
        validate_stopping_time(trinomial, cut)   # root's third child missed
    validate_stopping_time(FiltrationTree.binomial(2), cut)   # an equal tree
    with pytest.raises(TcppError):
        validate_stopping_time(trinomial, cut)
    deep = StoppingTime.at_time(big, 4)
    validate_stopping_time(big, deep)
    with pytest.raises(ForeignNode):
        validate_stopping_time(binomial, deep)
