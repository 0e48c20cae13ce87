"""Scenario-model behavior: selections, penalties, cocycle, conjugacy."""
import itertools
import math

import numpy as np
import pytest

import oracles
from gen import (menu_mixture, random_claim, random_irregular_tree, random_model,
                 random_tree)
from tcpp.errors import EnumerationOverflow, TcppError
from tcpp.scenario import (MeasureSelection, MenuEntry, PenaltyProcess,
                           ScenarioModel, _check_selection, aggregate_penalty,
                           check_cocycle, check_nondegenerate,
                           cumulative_penalties, enumerate_selections,
                           minimal_penalty, selection_to_measure)
from tcpp.settings import Settings
from tcpp.tree import Claim, FiltrationTree, Measure, StoppingTime, precedes
from tcpp.pricing import price, random_stopping_time


def test_model_validation():
    tree = FiltrationTree.binomial(1)
    with pytest.raises(TcppError):
        ScenarioModel(tree, {0: [MenuEntry((0.5, 0.4), 0.0)]})   # sums to 0.9
    with pytest.raises(TcppError):
        ScenarioModel(tree, {0: [MenuEntry((0.5,), 0.0)]})        # arity
    with pytest.raises(TcppError):
        ScenarioModel(tree, {})                                   # missing node
    model = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), -0.2)]})
    assert model.normalization_findings()  # kept constructible, flagged


def test_nan_kernel_weight_rejected():
    tree = FiltrationTree.binomial(1)
    with pytest.raises(TcppError, match="kernel 1 at node 0 sums to nan"):
        ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), 0.0),
                                 MenuEntry((math.nan, 1.0), 0.0)]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_penalty_names_entry_and_node(bad):
    tree = FiltrationTree.binomial(2)
    menus = {v: [MenuEntry((0.5, 0.5), 0.0)] for v in tree.internal_nodes()}
    menus[2] = [MenuEntry((0.5, 0.5), 0.0), MenuEntry((0.9, 0.1), bad)]
    with pytest.raises(TcppError, match="entry 1 at node 2 is not finite"):
        ScenarioModel(tree, menus)


def test_identity_selection_density_one():
    rng = np.random.default_rng(2)
    tree = random_tree(rng)
    model = ScenarioModel.reference(tree)
    sel = MeasureSelection.of({v: 0 for v in tree.internal_nodes()})
    q = selection_to_measure(model, sel)
    assert max(abs(q.density[v] - 1.0) for v in tree.leaves) <= 1e-12


def test_selection_density_ratio_example():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1 / 3, 2 / 3), 0.0)]})
    q = selection_to_measure(model, MeasureSelection.of({0: 0}))
    assert abs(q.density[1] - 2 / 3) <= 1e-12
    assert abs(q.density[2] - 4 / 3) <= 1e-12


def test_selection_with_zero_component_absolutely_continuous():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0), 0.0)]})
    q = selection_to_measure(model, MeasureSelection.of({0: 0}))
    q.validate(tree)
    assert q.density[2] == 0.0
    assert not q.is_equivalent()


def test_enumerate_selections_count_and_cap():
    tree = FiltrationTree.binomial(2)
    menus = {v: [MenuEntry((0.5, 0.5), 0.0), MenuEntry((0.9, 0.1), 0.1)]
             for v in tree.internal_nodes()}
    model = ScenarioModel(tree, menus)
    sels = list(enumerate_selections(model))
    assert len(sels) == 8 == model.selection_count()
    with pytest.raises(EnumerationOverflow):
        list(enumerate_selections(model, Settings(max_enum=7)))


def test_aggregate_penalty_trivial_and_deterministic_sum():
    tree = FiltrationTree.binomial(2)
    menus = {0: [MenuEntry((0.3, 0.7), 0.1), MenuEntry((0.5, 0.5), 0.0)],
             1: [MenuEntry((0.5, 0.5), 0.2), MenuEntry((0.5, 0.5), 0.0)],
             2: [MenuEntry((0.8, 0.2), 0.2), MenuEntry((0.5, 0.5), 0.0)]}
    model = ScenarioModel(tree, menus)
    sel = MeasureSelection.of({0: 0, 1: 0, 2: 0})
    root = StoppingTime.at_root(tree)
    horizon = StoppingTime.at_horizon(tree)
    assert aggregate_penalty(model, sel, root, root).values[0] == 0.0
    # deterministic penalties: conditional expectation collapses to a sum
    total = aggregate_penalty(model, sel, root, horizon)
    assert abs(total.values[0] - 0.3) <= 1e-12
    zero_sel = MeasureSelection.of({0: 1, 1: 1, 2: 1})
    assert aggregate_penalty(model, zero_sel, root, horizon).values[0] == 0.0


def test_cocycle_identity_exact_for_all_triples():
    rng = np.random.default_rng(9)
    for _ in range(15):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree)
        sels = list(itertools.islice(enumerate_selections(model), 4))
        for sel in sels:
            nu = random_stopping_time(tree, rng)
            tau = random_stopping_time(tree, rng, lo=nu)
            sigma = random_stopping_time(tree, rng, lo=nu, hi=tau)
            a_nt = aggregate_penalty(model, sel, nu, tau)
            a_ns = aggregate_penalty(model, sel, nu, sigma)
            a_st = aggregate_penalty(model, sel, sigma, tau)
            # E_Q(alpha_{sigma,tau} | F_nu) under the chosen kernels
            g = cumulative_penalties(model, sel, tau)
            choice = sel.as_dict()
            for a in nu.cut:
                cond = _expect_below(model, choice, a, sigma, a_st.values)
                assert abs(a_nt.values[a] - (a_ns.values[a] + cond)) <= 1e-12


def _expect_below(model, choice, node, sigma, values):
    tree = model.tree
    if node in sigma.cut:
        return values[node]
    entry = model.menus[node][choice[node]]
    return sum(entry.kernel[i] * _expect_below(model, choice, c, sigma, values)
               for i, c in enumerate(tree.children[node]))


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_minimal_penalty_is_a_cocycle(tol):
    # for sigma <= rho <= tau the penalty from sigma to tau is the one from
    # sigma to rho plus E_R of the one from rho to tau given F_sigma, atom
    # by atom, each term from its own call
    settings = Settings(feasibility_tol=tol)
    rng = np.random.default_rng(23)
    nonzero = 0
    for i in range(150):
        tree = (random_tree if i % 2 else random_irregular_tree)(rng, 3, 4)
        model = random_model(rng, tree, 4)
        r = menu_mixture(rng, model)
        tau = random_stopping_time(tree, rng)
        sigma = random_stopping_time(tree, rng, hi=tau)
        rho = random_stopping_time(tree, rng, lo=sigma, hi=tau)
        whole = minimal_penalty(model, r, sigma, tau, settings).array
        head = minimal_penalty(model, r, sigma, rho, settings).array
        tail = minimal_penalty(model, r, rho, tau, settings).array
        mass = r.node_masses(tree)
        below = np.bincount(tree.owner_index(sigma.index, rho.index), mass[rho.index] * tail,
                            len(sigma.index))
        np.testing.assert_allclose(whole, head + below / mass[sigma.index], rtol=1e-12,
                                   atol=1e-15, err_msg=f"model {i}")
        nonzero += bool(whole.any())
    assert nonzero >= 30


def test_check_cocycle_accepts_construction_and_flags_perturbation():
    rng = np.random.default_rng(4)
    tree = random_tree(rng, max_periods=2)
    model = random_model(rng, tree)
    sel = next(iter(enumerate_selections(model)))
    proc = PenaltyProcess.from_selection(model, sel)
    assert check_cocycle(proc, model).passed
    bad_vals = proc.values.copy()
    victim = tree.internal_nodes()[0]
    bad_vals[victim] += 0.01
    rep = check_cocycle(PenaltyProcess(sel, bad_vals), model)
    assert not rep.passed
    assert any(f"node {victim}" == f.where for f in rep.findings)


def test_cocycle_deterministic_weaker_than_stopping_times():
    # compensating perturbation at time 1 keeps every deterministic-time
    # identity but breaks additivity across a stopping time that stops
    # early on one branch only
    tree = FiltrationTree.binomial(2)
    menus = {0: [MenuEntry((0.5, 0.5), 0.1), MenuEntry((0.5, 0.5), 0.0)],
             1: [MenuEntry((0.5, 0.5), 0.3), MenuEntry((0.5, 0.5), 0.0)],
             2: [MenuEntry((0.5, 0.5), 0.2), MenuEntry((0.5, 0.5), 0.0)]}
    model = ScenarioModel(tree, menus)
    sel = MeasureSelection.of({0: 0, 1: 0, 2: 0})
    true_vals = cumulative_penalties(model, sel)
    eps = 0.05
    vals = true_vals.copy()
    vals[1] += eps / 0.5
    vals[2] -= eps / 0.5
    proc = PenaltyProcess(sel, vals)
    rep = check_cocycle(proc, model)
    assert rep.info["deterministic_passed"]
    assert not rep.passed
    flagged = {f.where for f in rep.findings}
    assert flagged & {"node 1", "node 2"}
    # the same data fails the cocycle across sigma = {up, down-down, down-up}
    sigma = StoppingTime.of([1, 5, 6])
    tau = StoppingTime.at_horizon(tree)
    nu = StoppingTime.at_root(tree)
    leg = aggregate_penalty(model, sel, nu, sigma).values[0]
    cond = 0.5 * vals[1]  # alpha_{sigma,tau} vanishes on the leaf atoms
    assert abs(vals[0] - (leg + cond)) > 1e-3


def test_minimal_penalty_zero_on_zero_penalty_member():
    rng = np.random.default_rng(13)
    tree = random_tree(rng, max_periods=2)
    model = random_model(rng, tree, sublinear=True)
    sel = next(iter(enumerate_selections(model)))
    r = selection_to_measure(model, sel)
    pen = minimal_penalty(model, r, StoppingTime.at_root(tree),
                          StoppingTime.at_horizon(tree))
    assert abs(pen.values[tree.root]) <= 1e-9


def test_minimal_penalty_mixture_example():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), 0.0),
                                     MenuEntry((1.0, 0.0), 1.0)]})
    r = Measure({1: 0.75 / 0.5, 2: 0.25 / 0.5})
    pen = minimal_penalty(model, r, StoppingTime.at_root(tree),
                          StoppingTime.at_horizon(tree))
    assert abs(pen.values[0] - 0.5) <= 1e-9


def test_minimal_penalty_infeasible_is_infinite():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), 0.0)]})
    r = Measure({1: 1.5, 2: 0.5})
    pen = minimal_penalty(model, r, StoppingTime.at_root(tree),
                          StoppingTime.at_horizon(tree))
    assert pen.values[0] == math.inf


def test_minimal_penalty_nan_on_uncharged_atom():
    tree = FiltrationTree.binomial(1)
    model = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), 0.0),
                                     MenuEntry((1.0, 0.0), 0.0)]})
    r = Measure({1: 2.0, 2: 0.0})
    pen = minimal_penalty(model, r, StoppingTime.at_horizon(tree),
                          StoppingTime.at_horizon(tree))
    assert pen.values[1] == 0.0
    assert math.isnan(pen.values[2])


def test_minimality_against_stated_penalties():
    rng = np.random.default_rng(23)
    for _ in range(10):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree, max_entries=2)
        root = StoppingTime.at_root(tree)
        horizon = StoppingTime.at_horizon(tree)
        for sel in itertools.islice(enumerate_selections(model), 32):
            stated = aggregate_penalty(model, sel, root, horizon).values[tree.root]
            r = selection_to_measure(model, sel)
            pen = minimal_penalty(model, r, root, horizon).values[tree.root]
            assert pen <= stated + 1e-9


def test_bidual_exactness_reprices_model():
    rng = np.random.default_rng(31)
    for _ in range(8):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree, max_entries=2)
        root = StoppingTime.at_root(tree)
        horizon = StoppingTime.at_horizon(tree)
        sels = list(itertools.islice(enumerate_selections(model), 64))
        duals = []
        for sel in sels:
            r = selection_to_measure(model, sel)
            pen = minimal_penalty(model, r, root, horizon).values[tree.root]
            duals.append((r.leaf_masses(tree), pen))
        for _ in range(5):
            x = random_claim(rng, tree)
            direct = price(model, x, root).values[tree.root]
            vec = np.array([x.values[b] for b in tree.leaves])
            re_priced = max(float(m @ vec) - p for m, p in duals
                            if not math.isnan(p) and p != math.inf)
            assert re_priced <= direct + 1e-9
            assert abs(re_priced - direct) <= 1e-9


def test_check_nondegenerate_cases():
    tree = FiltrationTree.binomial(1)
    assert check_nondegenerate(ScenarioModel.reference(tree)).passed
    dead = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0), 0.0),
                                    MenuEntry((1.0, 0.0), 0.5)]})
    rep = check_nondegenerate(dead)
    assert not rep.passed
    assert rep.info["dead_leaves"] == [2]
    # supports jointly cover although individually they do not
    joint = ScenarioModel(tree, {0: [MenuEntry((1.0, 0.0), 0.0),
                                     MenuEntry((0.0, 1.0), 0.0)]})
    assert check_nondegenerate(joint).passed


def test_price_matches_enumeration_for_scenario_examples():
    rng = np.random.default_rng(41)
    tree = random_tree(rng, max_periods=2)
    model = random_model(rng, tree)
    sigma = StoppingTime.at_time(tree, 1)
    x = random_claim(rng, tree)
    assert price(model, x, sigma).allclose(oracles.price_enumerated(model, x, sigma), 1e-9)


def test_selection_check_matches_the_dict_loop():
    """Missing nodes, indexes out of range on either side, leaf keys and
    keys outside the tree: the same message naming the same node, or the
    same entry per internal node."""
    rng = np.random.default_rng(61)
    errors = set()
    for i in range(300):
        tree = (random_irregular_tree if i % 2 else random_tree)(rng)
        model = random_model(rng, tree, max_entries=4)
        internal = tree.internal_nodes()
        choice = {v: int(rng.integers(model.menu_sizes[v])) for v in internal}
        for _ in range(int(rng.integers(0, 3))):
            v = internal[int(rng.integers(len(internal)))]
            spoil = int(rng.integers(5))
            if spoil == 0:
                choice.pop(v, None)
            elif spoil == 1:
                choice[v] = int(model.menu_sizes[v] + rng.integers(0, 3))
            elif spoil == 2:
                choice[v] = -1 - int(rng.integers(0, 3))
            elif spoil == 3:
                choice[tree.leaves[int(rng.integers(len(tree.leaves)))]] = 9
            else:
                choice[int(rng.choice([-2, tree.n_nodes, tree.n_nodes + 7]))] = 0
        sel = MeasureSelection.of(choice)
        try:
            want = oracles.check_selection_dict(model, sel)
        except TcppError as exc:
            with pytest.raises(TcppError) as err:
                _check_selection(model, sel)
            assert str(err.value) == str(exc)
            errors.add(str(exc).split(" ")[1])
        else:
            got = _check_selection(model, sel)
            assert got[list(internal)].tolist() == [want[v] for v in internal]
    assert errors == {"misses", "index"}


def test_check_cocycle_flags_a_horizon_value_and_refuses_a_short_process():
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    sel = MeasureSelection.of({v: 0 for v in tree.internal_nodes()})
    values = PenaltyProcess.from_selection(model, sel).values.copy()
    values[3] = 0.5
    rep = check_cocycle(PenaltyProcess(sel, values), model)
    assert (rep.findings[0].where, rep.findings[0].message) == \
        ("node 3", "horizon value 0.5 is not 0")
    with pytest.raises(TcppError, match="needs 7 values"):
        check_cocycle(PenaltyProcess(sel, values[:4]), model)
