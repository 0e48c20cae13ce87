"""The tree's preorder interval index and its arrays against the walkers
and dicts they replaced, and trees deeper than Python's recursion limit."""
import math

import numpy as np
import pytest

import oracles
from gen import (deep_chain_model, random_claim, random_irregular_tree, random_model,
                 random_tree, relabelled)
from tcpp.errors import EnumerationOverflow, TcppError
from tcpp.nfl import find_zero_penalty_equivalent_measure, nfl_verdict
from tcpp.pricing import (american_price, enumerate_stop_sets, price,
                          random_stopping_time)
from tcpp.scenario import (MeasureSelection, PenaltyProcess, ScenarioModel,
                           check_cocycle, minimal_penalty, selection_to_measure,
                           subtree_duals)
from tcpp.tree import (Claim, FiltrationTree, Measure, StoppingTime,
                       conditional_expectation, essential_supremum, lift, precedes,
                       validate_stopping_time)


def trees(seed: int, count: int, max_periods: int = 3):
    rng = np.random.default_rng(seed)
    for i in range(count):
        tree = random_tree(rng, max_periods=max_periods)
        yield rng, (relabelled(tree, rng) if i % 2 else tree)


def verdict(fn, tree, tau):
    try:
        fn(tree, tau)
    except TcppError as exc:
        return type(exc), str(exc)
    return None


def bad_cuts(tree: FiltrationTree, tau: StoppingTime, rng: np.random.Generator):
    """Overlapping, gapped and foreign variants of a valid cut."""
    cut = sorted(tau.cut)
    v = cut[int(rng.integers(len(cut)))]
    out = [StoppingTime.of(set(cut) - {v})]
    if tree.children[v]:
        out.append(StoppingTime.of(cut + [tree.children[v][-1]]))
    if tree.parents[v] is not None:
        out.append(StoppingTime.of(cut + [tree.parents[v]]))
    out.append(StoppingTime.of(cut + [tree.n_nodes + int(rng.integers(3))]))
    out.append(StoppingTime.of(cut + [-1]))
    size = int(rng.integers(1, tree.n_nodes + 1))
    out.append(StoppingTime.of(int(u) for u in rng.choice(tree.n_nodes, size, replace=False)))
    return out


def test_validate_matches_path_scan_on_valid_and_invalid_cuts():
    checked = 0
    for rng, tree in trees(1, 60):
        for _ in range(4):
            tau = random_stopping_time(tree, rng, stop_prob=float(rng.uniform(0.1, 0.7)))
            assert verdict(validate_stopping_time, tree, tau) is None
            for bad in bad_cuts(tree, tau, rng):
                want = verdict(oracles.validate_stopping_time_scan, tree, bad)
                assert verdict(validate_stopping_time, tree, bad) == want
                checked += want is not None
    assert checked > 500


def test_precedes_lift_and_conditional_expectation_match_scans():
    for rng, tree in trees(2, 60):
        density = rng.uniform(0.0, 2.0, size=len(tree.leaves))
        density[rng.random(len(density)) < 0.2] = 0.0
        q = Measure({v: float(d) for v, d in zip(tree.leaves, density)})
        for _ in range(4):
            tau = random_stopping_time(tree, rng)
            nu = random_stopping_time(tree, rng, hi=tau)
            other = random_stopping_time(tree, rng)
            for a, b in ((nu, tau), (tau, nu), (other, tau), (tau, other)):
                assert precedes(tree, a, b) == oracles.precedes_scan(tree, a, b)
            some = StoppingTime.of(int(u) for u in rng.choice(tree.n_nodes, 3))
            assert precedes(tree, some, tau) == oracles.precedes_scan(tree, some, tau)

            z = random_claim(rng, tree, at=nu)
            assert (list(lift(tree, z, tau).values.items())
                    == list(oracles.lift_scan(tree, z, tau).values.items()))
            x = random_claim(rng, tree, at=tau)
            got = conditional_expectation(tree, q, x, nu).values
            want = oracles.conditional_expectation_walk(tree, q, x, nu).values
            assert [(a, repr(v)) for a, v in got.items()] == \
                [(a, repr(v)) for a, v in want.items()]
            assert same_up_to_rounding(
                got, oracles.conditional_expectation_scan(tree, q, x, nu).values)


def same_up_to_rounding(got, want) -> bool:
    """The same keys, NaN on the same ones and the other values within a
    few ulps: a bottom-up sum and a sum along the preorder round apart."""
    return got.keys() == want.keys() and all(
        math.isnan(got[a]) == math.isnan(want[a])
        and (math.isnan(want[a]) or abs(got[a] - want[a]) <= 1e-12 * (1.0 + abs(want[a])))
        for a in want)


def test_array_claims_and_masses_match_their_dict_versions():
    rng = np.random.default_rng(9)
    zero_mass = 0
    for i in range(90):
        tree = (random_irregular_tree if i % 3 else random_tree)(rng)
        if i % 2:
            tree = relabelled(tree, rng)
        density = rng.uniform(0.0, 2.0, size=len(tree.leaves))
        density[rng.random(len(density)) < 0.3] = 0.0
        q = Measure({v: float(d) for v, d in zip(tree.leaves, density)})
        masses = q.node_masses(tree)
        assert masses.tolist() == [oracles.node_masses_walk(tree, q)[v]
                                   for v in range(tree.n_nodes)]
        some = [int(u) for u in rng.choice(tree.n_nodes, int(rng.integers(0, 5)))]
        owner = oracles.owners(tree, some, range(tree.n_nodes))
        assert [some[j] if j >= 0 else None
                for j in tree.owner_index(some, range(tree.n_nodes)).tolist()] == \
            [owner[v] for v in range(tree.n_nodes)]
        for _ in range(3):
            tau = random_stopping_time(tree, rng)
            nu = random_stopping_time(tree, rng, hi=tau)
            z = random_claim(rng, tree, at=nu)
            assert lift(tree, z, tau) == oracles.lift_scan(tree, z, tau)
            xs = [random_claim(rng, tree, at=tau) for _ in range(int(rng.integers(1, 4)))]
            assert essential_supremum(tree, xs) == oracles.essential_supremum_scan(tree, xs)
            for x in xs:
                got = conditional_expectation(tree, q, x, nu)
                want = oracles.conditional_expectation_walk(tree, q, x, nu)
                assert [(a, repr(v)) for a, v in got.values.items()] == \
                    [(a, repr(v)) for a, v in want.values.items()]
                assert same_up_to_rounding(
                    got.values, oracles.conditional_expectation_scan(tree, q, x, nu).values)
                zero_mass += int(np.isnan(got.array).sum())
    assert zero_mass > 50


def test_product_down_matches_forward_mass_bit_for_bit():
    # the same multiplications as the path walk, so the same bits: for
    # weights with zeros, for a selection's measure and for the certificate,
    # the uniform mixture of the zero-penalty kernels summed in menu order
    rng = np.random.default_rng(71)
    for i in range(60):
        tree = (random_irregular_tree if i % 3 else random_tree)(rng)
        if i % 2:
            tree = relabelled(tree, rng)
        weights = {v: tuple(np.where(rng.random(len(kids)) < 0.2, 0.0,
                                     rng.uniform(0.0, 1.0, len(kids))).tolist())
                   for v, kids in enumerate(tree.children) if kids}
        mass = tree.product_down(weights)
        tau = random_stopping_time(tree, rng)
        want = oracles.forward_mass(tree, tree.root, tau.cut, weights.__getitem__)
        assert mass[tau.index].tolist() == [want[b] for b in tau.sorted()]

        model = random_model(rng, tree, sublinear=i % 4 == 0, include_reference=i % 4 == 1)
        choice = {v: int(rng.integers(len(model.menus[v]))) for v in tree.internal_nodes()}
        want = oracles.forward_mass(tree, tree.root, frozenset(tree.leaves),
                                    lambda v: model.menus[v][choice[v]].kernel)
        assert selection_to_measure(model, MeasureSelection.of(choice)).density == \
            {b: want[b] / tree.leaf_weights[b] for b in tree.leaves}
        # a key beyond the internal nodes, here a leaf's, is not read
        extra = MeasureSelection.of({**choice, tree.leaves[0]: 0})
        assert selection_to_measure(model, extra).density == \
            {b: want[b] / tree.leaf_weights[b] for b in tree.leaves}
        zero = {v: [e.kernel for e in entries if e.penalty <= 1e-9]
                for v, entries in model.menus.items()}
        want = oracles.forward_mass(tree, tree.root, frozenset(tree.leaves),
                                    lambda v: tuple(sum(col) / len(zero[v])
                                                    for col in zip(*zero[v])))
        assert find_zero_penalty_equivalent_measure(model).density == \
            {b: want[b] / tree.leaf_weights[b] for b in tree.leaves}


def test_enumerations_match_recursive_lists_element_for_element():
    for rng, tree in trees(3, 40, max_periods=2):
        model = random_model(rng, tree)
        for _ in range(3):
            tau = random_stopping_time(tree, rng)
            nu = random_stopping_time(tree, rng, hi=tau)
            for node in nu.cut:
                assert (enumerate_stop_sets(tree, node, tau)
                        == oracles.enumerate_stop_sets_recursive(tree, node, tau))
                got = subtree_duals(model, node, tau)
                want = oracles.subtree_duals_recursive(model, node, tau)
                assert [(list(m.items()), p) for m, p in got] == \
                    [(list(m.items()), p) for m, p in want]


def test_random_stopping_time_keeps_the_draw_order():
    for rng, tree in trees(4, 40):
        hi = random_stopping_time(tree, rng)
        lo = random_stopping_time(tree, rng, hi=hi)
        for stop_prob in (0.0, 0.3, 0.5, 1.0):
            seed = int(rng.integers(1 << 30))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_stopping_time(tree, r1, lo, hi, stop_prob)
            assert got == oracles.random_stopping_time_recursive(tree, r2, lo, hi, stop_prob)
            assert r1.random() == r2.random()


def test_cocycle_deterministic_identity_matches_pairwise_scan():
    verdicts = set()
    for rng, tree in trees(5, 30):
        model = random_model(rng, tree)
        sel = MeasureSelection.of({v: int(rng.integers(len(model.menus[v])))
                                   for v in tree.internal_nodes()})
        base = PenaltyProcess.from_selection(model, sel)
        node = int(rng.integers(tree.n_nodes))
        for bump in (0.0, 1e-12, 1e-6):
            values = dict(base.values)
            values[node] += bump
            penalty = PenaltyProcess(sel, values)
            got = check_cocycle(penalty, model).info["deterministic_passed"]
            assert got == oracles.cocycle_deterministic_scan(model, penalty)
            verdicts.add(got)
    assert verdicts == {True, False}


# -- a chain deeper than the recursion limit ----------------------------------

@pytest.fixture(scope="module")
def chain() -> ScenarioModel:
    return deep_chain_model()


def test_deep_chain_enumerations(chain):
    tree = chain.tree
    horizon = StoppingTime.at_horizon(tree)
    head = tree.children[tree.root][0]
    sets = enumerate_stop_sets(tree, head, horizon)
    assert len(sets) == 1201 and sets[0] == (head,)
    with pytest.raises(EnumerationOverflow):      # 1 + 1201^2 stopping times
        enumerate_stop_sets(tree, tree.root, horizon)
    # an increasing payoff is best exercised at maturity: the European price
    second = tree.children[tree.root][1]
    payoff = {v: tree.times[v] * (0.5 if tree.is_ancestor(second, v) else 1.0)
              for v in range(tree.n_nodes)}
    root = StoppingTime.at_root(tree)
    res = american_price(chain, payoff, root, horizon)
    european = price(chain, Claim(horizon, {b: payoff[b] for b in tree.leaves}), root)
    assert res.value.values[tree.root] == european.values[tree.root]
    assert res.optimal[tree.root] == tree.leaves
    assert len(subtree_duals(chain, tree.root, horizon)) == 2


def test_deep_chain_stopping_time_and_penalties(chain):
    tree = chain.tree
    root, horizon = StoppingTime.at_root(tree), StoppingTime.at_horizon(tree)
    rng = np.random.default_rng(0)
    assert random_stopping_time(tree, rng, stop_prob=0.0) == horizon
    pen = minimal_penalty(chain, Measure.reference(tree), root, horizon)
    assert pen.values[tree.root] == 0.0
    sel = MeasureSelection.of({v: 0 for v in tree.internal_nodes()})
    rep = check_cocycle(PenaltyProcess.from_selection(chain, sel), chain)
    assert rep.passed and rep.info["deterministic_passed"]


def test_deep_chain_nfl(chain):
    rep = nfl_verdict(chain, n_samples=4, n_strategies=2)
    assert rep.no_free_lunch
