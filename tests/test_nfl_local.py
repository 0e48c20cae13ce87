"""Node-local no-free-lunch and minimal penalties against the global
formulations in ``oracles``: every selection enumerated into one dense LP."""
import math
import re
import sys

import numpy as np
import pytest

import oracles
import tcpp.lp
from gen import (killed_leaf_model, random_irregular_tree, random_model,
                 random_tree, relabelled)
from tcpp.errors import EnumerationOverflow, NegativePenalty, TcppError
from tcpp.nfl import (find_static_free_lunch,
                      find_zero_penalty_equivalent_measure, nfl_verdict)
from tcpp.pricing import price, random_stopping_time
from tcpp.scenario import (MeasureSelection, MenuEntry, ScenarioModel,
                           check_nondegenerate, enumerate_selections,
                           minimal_penalty, selection_to_measure)
from tcpp.settings import Settings
from tcpp.tree import FiltrationTree, Measure, StoppingTime

TOL = 1e-9


def mixed_model(rng: np.random.Generator, tree: FiltrationTree) -> ScenarioModel:
    """Up to three zero-penalty entries and one positive one per node.
    Some nodes have no zero-penalty entry, some have an edge that every
    zero-penalty entry kills (charged only at a positive penalty), and some
    have an edge that every entry kills, at inner nodes as well as at the
    root."""
    menus = {}
    for v in tree.internal_nodes():
        k = len(tree.children[v])
        n_zero = 0 if rng.random() < 0.05 else int(rng.integers(1, 4))
        n_pos = int(rng.integers(0, 2)) if n_zero else int(rng.integers(1, 3))
        kernels = [rng.dirichlet(np.ones(k)) for _ in range(n_zero + n_pos)]
        draw = rng.random()
        if draw < 0.15:
            dead, killed = int(rng.integers(k)), kernels[:n_zero]
        elif draw < 0.2:
            dead, killed = int(rng.integers(k)), kernels
        else:
            dead, killed = None, []
        for ker in killed:
            ker[dead] = 0.0
            ker /= ker.sum()
        menus[v] = [MenuEntry(tuple(ker), 0.0 if i < n_zero else 0.01 + float(rng.exponential(0.2)))
                    for i, ker in enumerate(kernels)]
    return ScenarioModel(tree, menus)


def criterion_3_models() -> list[ScenarioModel]:
    """The instances of acceptance criterion 3, drawn the same way."""
    rng = np.random.default_rng(1003)
    models = []
    for k in range(100):
        tree = random_tree(rng, max_periods=2)
        models.append(random_model(rng, tree, include_reference=True) if k % 2 == 0
                      else killed_leaf_model(rng, tree)[0])
    return models


def mixed_models() -> list[ScenarioModel]:
    rng = np.random.default_rng(31)
    return [mixed_model(rng, random_tree(rng, max_periods=2)) for _ in range(80)]


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL


def _compare_with_oracles(model: ScenarioModel) -> bool:
    """Assert that the verdict and both certificates agree with the global
    formulations; return the verdict."""
    tree = model.tree
    root, horizon = StoppingTime.at_root(tree), StoppingTime.at_horizon(tree)
    cert = find_static_free_lunch(model)
    measure = find_zero_penalty_equivalent_measure(model)
    claim_g = oracles.find_static_free_lunch_global(model)
    measure_g = oracles.find_zero_penalty_equivalent_measure_global(model)
    nfl = cert is None
    assert (measure is not None) == nfl
    assert (claim_g is None) == nfl
    assert (measure_g is not None) == nfl
    if nfl:
        assert measure.is_equivalent()
        for r in (measure, measure_g):
            local = minimal_penalty(model, r, root, horizon).values[tree.root]
            glob = oracles.minimal_penalty_global(model, r, root, horizon).values[tree.root]
            assert abs(local - glob) <= TOL and local <= TOL
    else:
        claim = cert.claim
        vals = np.array([claim.values[b] for b in tree.leaves])
        assert vals.min() >= 0.0 and vals.max() > 0.0
        direct = price(model, claim, root).values[tree.root]
        dual = oracles.price_enumerated(model, claim, root).values[tree.root]
        assert abs(direct - dual) <= TOL and direct <= TOL
        assert price(model, claim_g, root).values[tree.root] <= TOL
    return nfl


def test_criterion_3_instances_match_global_oracles():
    verdicts = [_compare_with_oracles(m) for m in criterion_3_models()]
    assert verdicts == [k % 2 == 0 for k in range(100)]


def test_mixed_menus_match_global_oracles():
    verdicts = [_compare_with_oracles(m) for m in mixed_models()]
    assert 20 <= sum(verdicts) <= 60     # both sides well represented


def test_minimal_penalty_matches_global_oracle_at_inner_cuts():
    rng = np.random.default_rng(37)
    seen = {"finite": 0, "inf": 0, "nan": 0}
    models = mixed_models()[:30] + criterion_3_models()[:30]
    for model in models:
        tree = model.tree
        sels = list(enumerate_selections(model))
        picks = rng.choice(len(sels), size=min(3, len(sels)), replace=False)
        mix = sum(w * selection_to_measure(model, sels[i]).leaf_masses(tree)
                  for w, i in zip(rng.dirichlet(np.ones(len(picks))), picks))
        cut = np.array([not tree.is_ancestor(tree.children[tree.root][0], b)
                        for b in tree.leaves], dtype=float)
        measures = [mix, rng.dirichlet(np.ones(len(tree.leaves)))]
        if (mix * cut).sum() > 0.0:
            measures.append(mix * cut / (mix * cut).sum())
        for masses in measures:
            r = Measure.from_leaf_masses(tree, masses)
            for _ in range(3):
                sigma = random_stopping_time(tree, rng)
                tau = random_stopping_time(tree, rng, lo=sigma)
                got = minimal_penalty(model, r, sigma, tau)
                want = oracles.minimal_penalty_global(model, r, sigma, tau)
                for a in sigma.cut:
                    assert _same(got.values[a], want.values[a]), (a, got, want)
                    kind = ("nan" if math.isnan(got.values[a]) else
                            "inf" if math.isinf(got.values[a]) else "finite")
                    seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_minimal_penalty_matches_node_lp_oracle():
    # regular, irregular (one-child nodes) and relabelled trees, some with a
    # killed edge; measures from selections, the certificate, a mixture of
    # the two selections, and arbitrary densities, one of them zero below
    # the root's first child where it has another; the whole tree and a
    # random inner cut pair
    rng = np.random.default_rng(61)
    seen = {"finite": 0, "inf": 0, "nan": 0}
    for k in range(90):
        tree = [random_tree, random_irregular_tree, random_tree][k % 3](rng)
        if k % 3 == 2:
            tree = relabelled(tree, rng)
        if k % 4 == 3 and k % 3 != 1:
            model = killed_leaf_model(rng, tree)[0]
        else:
            model = random_model(rng, tree, max_entries=4, include_reference=k % 5 == 0)
        sels = [MeasureSelection.of({v: int(rng.integers(len(model.menus[v])))
                                     for v in tree.internal_nodes()}) for _ in range(2)]
        measures = [selection_to_measure(model, sel) for sel in sels]
        w = rng.dirichlet(np.ones(2))
        measures.append(Measure.from_leaf_masses(
            tree, w[0] * measures[0].leaf_masses(tree) + w[1] * measures[1].leaf_masses(tree)))
        for kill in (False, len(tree.children[tree.root]) > 1):
            masses = rng.dirichlet(np.ones(len(tree.leaves)))
            if kill:
                masses[tree.owner_index([tree.children[tree.root][0]], tree.leaves) == 0] = 0.0
            measures.append(Measure.from_leaf_masses(tree, masses / masses.sum()))
        cert = find_zero_penalty_equivalent_measure(model)
        measures += [cert] if cert is not None else []
        for r in measures:
            inner = random_stopping_time(tree, rng)
            pairs = [(StoppingTime.at_root(tree), StoppingTime.at_horizon(tree)),
                     (random_stopping_time(tree, rng, hi=inner), inner)]
            for sigma, tau in pairs:
                got = minimal_penalty(model, r, sigma, tau).array
                want = oracles.minimal_penalty_node_lp(model, r, sigma, tau).array
                assert (np.isnan(got) == np.isnan(want)).all(), (k, got, want)
                assert (np.isinf(got) == np.isinf(want)).all(), (k, got, want)
                fin = np.isfinite(want)
                assert (np.abs(got[fin] - want[fin])
                        <= 1e-12 * np.maximum(1.0, np.abs(want[fin]))).all(), (k, got, want)
                seen["nan"] += int(np.isnan(want).sum())
                seen["inf"] += int(np.isinf(want).sum())
                seen["finite"] += int(fin.sum())
    assert min(seen.values()) >= 20, seen


def test_minimal_penalty_mixture_count_is_capped():
    # four entries at arity 2 give C(4,1) + C(4,2) = 10 supports per node of
    # time 1, five at the root 15; a sigma at time 1 counts no root support
    rng = np.random.default_rng(3)
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel(tree, {v: [MenuEntry(tuple(rng.dirichlet([2.0, 2.0])), float(p))
                                     for p in [0.0] + [0.1] * (3 if v else 4)]
                                 for v in tree.internal_nodes()})
    r = selection_to_measure(model, MeasureSelection.of({0: 1, 1: 2, 2: 0}))
    root, inner = StoppingTime.at_root(tree), StoppingTime.of([1, 2])
    horizon = StoppingTime.at_horizon(tree)
    for sigma, cap, top in [(root, 15, "15 menu supports per node at time 0 (arity 2, 5"),
                            (inner, 10, "10 menu supports per node at time 1 (arity 2, 4")]:
        got = minimal_penalty(model, r, sigma, horizon, Settings(max_enum=cap))
        want = oracles.minimal_penalty_node_lp(model, r, sigma, horizon)
        assert got.array == pytest.approx(want.array, rel=1e-12)
        with pytest.raises(EnumerationOverflow, match=rf"^{re.escape(top)} menu entries\) "
                           rf"exceed the cap {cap - 1}$"):
            minimal_penalty(model, r, sigma, horizon, Settings(max_enum=cap - 1))


def test_minimal_penalty_rejects_cuts_that_are_no_stopping_times():
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel.reference(tree)
    r = Measure.reference(tree)
    root, horizon = StoppingTime.at_root(tree), StoppingTime.at_horizon(tree)
    for sigma, tau in [(root, StoppingTime.of([1])), (StoppingTime.of([2]), horizon)]:
        with pytest.raises(TcppError, match="meets the cut 0 times"):
            minimal_penalty(model, r, sigma, tau)


def test_nfl_verdict_solves_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lp.solve called")
    solve = tcpp.lp.solve
    for name, module in list(sys.modules.items()):
        if name.startswith("tcpp") and getattr(module, "solve", None) is solve:
            monkeypatch.setattr(module, "solve", refuse)
    verdicts = {nfl_verdict(model, n_samples=6, n_strategies=2).no_free_lunch
                for model in mixed_models()[:12]}
    assert verdicts == {True, False}


def test_nondegeneracy_matches_path_walk():
    rng = np.random.default_rng(41)
    models = mixed_models()
    for _ in range(30):
        models.append(killed_leaf_model(rng, random_tree(rng))[0])
    n_dead = 0
    for model in models:
        rep = check_nondegenerate(model)
        dead = oracles.dead_leaves_path_walk(model)
        assert rep.info["dead_leaves"] == [leaf for leaf, _, _ in dead]
        assert [(f.where, f.message) for f in rep.findings] == [
            (f"leaf {leaf}", f"every kernel at node {a} kills the edge to node {b}")
            for leaf, a, b in dead]
        n_dead += bool(dead)
    assert n_dead >= 10


def test_equivalence_floor_applies_per_edge():
    # every edge weight is at least 1e-3, but the leaf masses go down to
    # 1e-15, below the default floor of 1e-12
    tree = FiltrationTree.binomial(5)
    menus = {v: [MenuEntry((1.0 - 1e-3, 1e-3), 0.0)] for v in tree.internal_nodes()}
    skewed = ScenarioModel(tree, menus)
    rep = nfl_verdict(skewed, n_samples=10, n_strategies=3)
    assert rep.no_free_lunch
    masses = rep.certificate.measure.leaf_masses(tree)
    assert 0.0 < masses.min() < 1e-12
    # the global search holds prices to feasibility_tol, not to 0: it takes
    # a claim on the lightest leaves, priced at their positive mass, for a
    # free lunch
    lunch = oracles.find_static_free_lunch_global(skewed)
    assert 0.0 < price(skewed, lunch, StoppingTime.at_root(tree)).values[0] <= TOL
    # an edge weighted below the floor counts as uncharged, on both sides
    menus[1] = [MenuEntry((1.0 - 1e-13, 1e-13), 0.0), MenuEntry((0.5, 0.5), 0.2)]
    rep = nfl_verdict(ScenarioModel(tree, menus), n_samples=10, n_strategies=3)
    assert not rep.no_free_lunch
    assert rep.checks.info["certificate_price"] <= TOL


def test_negative_penalty_rejected_naming_the_node():
    tree = FiltrationTree.binomial(2)
    model = ScenarioModel(tree, {0: [MenuEntry((0.5, 0.5), 0.0)],
                                 1: [MenuEntry((0.5, 0.5), 0.0)],
                                 2: [MenuEntry((0.5, 0.5), 0.0),
                                     MenuEntry((0.2, 0.8), -0.25)]})
    for search in (nfl_verdict, find_static_free_lunch,
                   find_zero_penalty_equivalent_measure):
        with pytest.raises(NegativePenalty, match=r"node 2 .*-0\.25"):
            search(model)
