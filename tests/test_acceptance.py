"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import itertools
import math

import numpy as np
import pytest

from gen import killed_leaf_model, random_claim, random_model, random_tree
from oracles import (american_enumerated, binomial_constrained_oracle,
                     good_deal_interval_oracle, price_enumerated)
from tcpp.market import (AssetProcess, ConstraintSet, GoodDealCaps,
                         QuotedOption, calibrated_bounds, check_extends_dynamics,
                         good_deal_bounds, mme_bounds, constrained_price)
from tcpp.nfl import nfl_verdict
from counterexamples import non_rectangular_counterexample
from tcpp.pricing import (american_price, backward_pass, check_axioms,
                          check_supermartingale, check_time_consistency, price,
                          random_stopping_time)
from tcpp.scenario import (MenuEntry, PenaltyProcess, ScenarioModel,
                           check_cocycle, enumerate_selections,
                           minimal_penalty, selection_to_measure)
from tcpp.settings import Settings
from tcpp.tree import (Claim, FiltrationTree, Measure, StoppingTime,
                       conditional_expectation, lift_to_leaves)


def _verdict(num: int, name: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"acceptance {num:2d} ({name}): {status}")
    assert not violations, f"criterion {num} ({name}): {violations[:5]}"


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_axiom_suite():
    rng = np.random.default_rng(1001)
    violations = []
    lambdas = (0.0, 0.3, 0.5, 1.0)
    for k in range(200):
        tree = random_tree(rng, max_periods=3, max_branch=3)
        model = random_model(rng, tree)
        horizon = StoppingTime.at_horizon(tree)
        pairs = []
        vals = rng.uniform(-2.0, 2.0, size=(1000, 2, len(tree.leaves)))
        for i in range(1000):
            pairs.append((Claim(horizon, dict(zip(tree.leaves, vals[i, 0]))),
                          Claim(horizon, dict(zip(tree.leaves, vals[i, 1])))))
        rep = check_axioms(model, pairs, lambdas=lambdas, seed=k, tol=1e-12)
        if not rep.passed:
            violations.append((k, rep.findings[0]))
    _verdict(1, "axioms on 200 models x 1000 claims", violations)


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_consistency_equals_enumeration():
    rng = np.random.default_rng(1002)
    violations = []
    settings = Settings(max_enum=10**5)
    # one large instance near the selection cap plus a spread of small ones
    cases = []
    big_tree = FiltrationTree.binomial(3)
    big_menus = {v: [MenuEntry(tuple(rng.dirichlet(np.ones(2))),
                              0.0 if i == 0 else float(rng.exponential(0.2)))
                     for i in range(5)]
                 for v in big_tree.internal_nodes()}
    cases.append((big_tree, ScenarioModel(big_tree, big_menus)))
    for _ in range(20):
        tree = random_tree(rng, max_periods=2)
        cases.append((tree, random_model(rng, tree)))
    for idx, (tree, model) in enumerate(cases):
        assert model.selection_count() <= 10**5
        for _ in range(3):
            x = random_claim(rng, tree)
            sigma = random_stopping_time(tree, rng) if idx else StoppingTime.at_root(tree)
            direct = price(model, x, sigma)
            oracle = price_enumerated(model, x, sigma, settings)
            if direct.max_abs_diff(oracle) > 1e-9:
                violations.append((idx, direct.max_abs_diff(oracle)))

    evaluator, ce_model, ce_penalty = non_rectangular_counterexample()
    tree = evaluator.tree
    chains = [(StoppingTime.at_root(tree), StoppingTime.at_time(tree, 1),
               StoppingTime.at_horizon(tree))]
    samples = [random_claim(rng, tree) for _ in range(40)]
    tc = check_time_consistency(evaluator, chains, samples)
    if tc.passed:
        violations.append("counterexample not caught by the consistency check")
    coc = check_cocycle(ce_penalty, ce_model)
    if coc.passed:
        violations.append("counterexample penalty passes the cocycle check")
    witness = tc.info.get("witness_node")
    if not any(f.where == f"node {witness}" for f in coc.findings):
        violations.append("cocycle and consistency witnesses disagree")
    _verdict(2, "induction = enumerated dual; counterexample caught", violations)


# -- criteria 3 and 5 share instances ----------------------------------------

@pytest.fixture(scope="module")
def theorem1_instances():
    rng = np.random.default_rng(1003)
    instances = []
    for k in range(100):
        tree = random_tree(rng, max_periods=2)
        if k % 2 == 0:
            model = random_model(rng, tree, include_reference=True)
        else:
            model, _ = killed_leaf_model(rng, tree)
        instances.append((tree, model, nfl_verdict(model, seed=2000 + k,
                                                   n_samples=10, n_strategies=3)))
    return instances


def test_criterion_3_theorem1_equivalence(theorem1_instances):
    violations = []
    for k, (tree, model, rep) in enumerate(theorem1_instances):
        if (k % 2 == 0) != rep.no_free_lunch:
            violations.append((k, "verdict does not match the construction"))
            continue
        if rep.no_free_lunch:
            r = rep.certificate.measure
            if min(r.density.values()) <= 0:
                violations.append((k, "certificate measure not strictly positive"))
            pen = minimal_penalty(model, r, StoppingTime.at_root(tree),
                                  StoppingTime.at_horizon(tree)).values[tree.root]
            if pen > 1e-9:
                violations.append((k, f"certificate penalty {pen}"))
        else:
            claim = rep.certificate.claim
            vals = np.array(list(claim.values.values()))
            if vals.min() < -1e-12 or vals.max() <= 0:
                violations.append((k, "certificate claim not a free lunch"))
            p0 = price(model, claim, StoppingTime.at_root(tree)).values[tree.root]
            if p0 > 1e-9:
                violations.append((k, f"certificate claim priced {p0}"))
    _verdict(3, "four NFL verdicts agree on 100 instances", violations)


def test_criterion_5_sandwich_supermartingale(theorem1_instances):
    rng = np.random.default_rng(1005)
    violations = []
    tol = 1e-9
    for k, (tree, model, rep) in enumerate(theorem1_instances):
        if not rep.no_free_lunch:
            continue
        r = rep.certificate.measure
        masses = r.leaf_masses(tree)
        horizon = StoppingTime.at_horizon(tree)
        n = 500
        leaf_list = list(tree.leaves)
        X = rng.uniform(-2.0, 2.0, size=(len(leaf_list), n))
        rows = np.full((tree.n_nodes, n), np.nan)
        rows[leaf_list] = X
        ask = backward_pass(model, horizon, rows)
        bid = -backward_pass(model, horizon, -rows)

        def er_given(node):
            idx = [tree.leaf_index[v] for v in tree.subtree_leaves(node)]
            m = masses[idx]
            total = m.sum()
            return (m @ X[idx]) / total

        sigmas = [random_stopping_time(tree, rng) for _ in range(10)]
        for sigma in sigmas:
            for a in sigma.cut:
                e = er_given(a)
                if np.any(e > ask[a] + tol) or np.any(e < bid[a] - tol):
                    violations.append((k, f"sandwich at {a}"))
        for t in range(tree.horizon):
            for a in tree.nodes_at(t):
                idx = [tree.leaf_index[v] for v in tree.subtree_leaves(a)]
                ma = masses[idx].sum()
                e_ask = sum(masses[[tree.leaf_index[v] for v in tree.subtree_leaves(c)]].sum()
                            * ask[c] for c in tree.children[a]) / ma
                e_bid = sum(masses[[tree.leaf_index[v] for v in tree.subtree_leaves(c)]].sum()
                            * bid[c] for c in tree.children[a]) / ma
                if np.any(e_ask > ask[a] + tol):
                    violations.append((k, f"ask supermartingale at {a}"))
                if np.any(e_bid < bid[a] - tol):
                    violations.append((k, f"bid submartingale at {a}"))
        # the dedicated checker agrees on a few of the sampled claims
        for i in range(0, n, 200):
            x = Claim(horizon, {b: float(X[j, i]) for j, b in enumerate(leaf_list)})
            if not check_supermartingale(model, x, r, seed=i):
                violations.append((k, "check_supermartingale disagrees"))
    _verdict(5, "sandwich + one-step inequalities on NFL instances", violations)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_bidual_conjugacy():
    rng = np.random.default_rng(1004)
    violations = []
    for k in range(50):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree, max_entries=2)
        root = StoppingTime.at_root(tree)
        horizon = StoppingTime.at_horizon(tree)
        duals = []
        for sel in enumerate_selections(model):
            r = selection_to_measure(model, sel)
            pen = minimal_penalty(model, r, root, horizon).values[tree.root]
            duals.append((r.leaf_masses(tree), pen))
        for _ in range(5):
            x = random_claim(rng, tree)
            direct = price(model, x, root).values[tree.root]
            vec = np.array([x.values[b] for b in tree.leaves])
            best = max(float(m @ vec) - p for m, p in duals if math.isfinite(p))
            if abs(best - direct) > 1e-9:
                violations.append((k, abs(best - direct)))
    _verdict(4, "minimal-penalty repricing reproduces prices", violations)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_complete_market_collapse():
    violations = []
    tree = FiltrationTree.binomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5})
    call = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0})
    b = mme_bounds(tree, [s], call)
    if abs(b.lower - 1 / 3) > 1e-9 or abs(b.upper - 1 / 3) > 1e-9:
        violations.append(f"bounds {b.lower}, {b.upper}")
    rng = np.random.default_rng(1006)
    mme = (1 / 3, 2 / 3)
    for k in range(20):
        entries = [MenuEntry(mme, 0.0)]
        for _ in range(int(rng.integers(0, 3))):
            entries.append(MenuEntry(mme, float(rng.exponential(0.5))))
        model = ScenarioModel(tree, {0: entries})
        if not check_extends_dynamics(model, [s], n_spot=1, seed=k).passed:
            violations.append((k, "model fails to extend the dynamics"))
        got = price(model, call, StoppingTime.at_root(tree)).values[0]
        if got != 1 / 3:
            violations.append((k, f"call priced at {got!r}, not exactly 1/3"))
    _verdict(6, "complete binomial prices the call at 1/3", violations)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_bound_nesting():
    violations = []
    tree = FiltrationTree.trinomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0, 3: 0.5})
    x = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0, 3: 0.0})
    b = mme_bounds(tree, [s], x)
    if abs(b.lower) > 1e-9 or abs(b.upper - 1 / 3) > 1e-9:
        violations.append(f"unquoted bounds ({b.lower}, {b.upper})")
    lo, hi = calibrated_bounds(tree, [s], [QuotedOption("C", x, 0.1, 0.2)], x)
    if lo < 0.1 - 1e-9 or hi > 0.2 + 1e-9:
        violations.append(f"quoted-band bounds ({lo}, {hi})")

    rng = np.random.default_rng(1007)
    y2 = Claim(StoppingTime.at_horizon(tree), {1: 0.0, 2: 1.0, 3: 0.0})
    for k in range(50):
        target = random_claim(rng, tree)
        quotes = []
        prev = calibrated_bounds(tree, [s], quotes, target)
        if not (b_all := mme_bounds(tree, [s], target)) or \
                prev[0] < b_all.lower - 1e-9 or prev[1] > b_all.upper + 1e-9:
            violations.append((k, "no-quote bounds escape the unquoted ones"))
        for j in range(int(rng.integers(1, 4))):
            payoff = x if rng.random() < 0.5 else y2
            a, c = sorted(rng.uniform(0.0, 0.5, size=2))
            quotes.append(QuotedOption(f"Q{j}", payoff, float(a), float(c)))
            cur = calibrated_bounds(tree, [s], quotes, target)
            if cur[0] < prev[0] - 1e-9 or cur[1] > prev[1] + 1e-9:
                violations.append((k, j, "adding a quote widened the bounds"))
            prev = cur
        # a quoted option held as the target stays inside its own band
        band = QuotedOption("T", target, *(sorted(
            float(lift_to_leaves(tree, target) @ w) for w in _two_mme_mass_vectors())))
        qlo, qhi = calibrated_bounds(tree, [s], quotes + [band], target)
        if qlo < band.bid - 1e-9 or qhi > band.ask + 1e-9:
            violations.append((k, "quoted target escapes its own band"))
    _verdict(7, "quote calibration nests and never widens", violations)


def _two_mme_mass_vectors():
    # masses of the theta = 0.2 and theta = 0.5 members of the family
    out = []
    for theta in (0.2, 0.5):
        out.append(np.array([theta / 2, 1 - 1.5 * theta, theta]))
    return out


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_good_deal_limits():
    violations = []
    tree = FiltrationTree.trinomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0, 3: 0.5})
    x = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0, 3: 0.0})
    base = mme_bounds(tree, [s], x)
    lo, hi = good_deal_bounds(tree, [s], GoodDealCaps.uniform(1e6), x)
    if abs(lo - base.lower) > 1e-6 or abs(hi - base.upper) > 1e-6:
        violations.append(f"vacuous cap differs from plain bounds ({lo}, {hi})")

    tree_m = FiltrationTree.binomial(1, [1 / 3, 2 / 3])
    s_m = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5})
    call = Claim(StoppingTime.at_horizon(tree_m), {1: 1.0, 2: 0.0})
    lo, hi = good_deal_bounds(tree_m, [s_m], GoodDealCaps.uniform(1.0), call)
    ep = float(np.dot([1 / 3, 2 / 3], [1.0, 0.0]))
    if abs(lo - ep) > 1e-8 or abs(hi - ep) > 1e-8:
        violations.append(f"unit cap not the single point E_P ({lo}, {hi})")

    for cap in (1.1, 1.2, 1.35):
        lo, hi = good_deal_bounds(tree, [s], GoodDealCaps.uniform(cap), x)
        want_lo, want_hi = good_deal_interval_oracle(cap)
        if abs(lo - want_lo) > 1e-6 or abs(hi - want_hi) > 1e-6:
            violations.append((cap, lo - want_lo, hi - want_hi))
    _verdict(8, "good-deal caps: vacuous, unit, grid oracle", violations)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_constrained_pricing():
    violations = []
    tree = FiltrationTree.binomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5})
    call = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0})
    band = ConstraintSet([(-100.0,), (100.0,)])
    got = constrained_price(tree, [s], band, call).values[0]
    if abs(got - 1 / 3) > 1e-6:
        violations.append(f"wide band price {got}")

    rng = np.random.default_rng(1009)
    for k in range(30):
        periods = 1 + k % 2
        t = FiltrationTree.binomial(periods)
        svals = {t.root: 1.0}
        for v in range(t.n_nodes):
            if v == t.root:
                continue
            par = svals[t.parents[v]]
            svals[v] = par * float(rng.uniform(0.5, 2.0))
        asset = AssetProcess("S", svals)
        x = random_claim(rng, t)
        h = ConstraintSet([(float(-rng.uniform(0.2, 2.0)),),
                           (float(rng.uniform(0.2, 2.0)),)])
        got = constrained_price(t, [asset], h, x).values[t.root]
        want = binomial_constrained_oracle(t, asset, h, dict(x.values))
        if abs(got - want) > 1e-6:
            violations.append((k, got - want))
        zero_got = constrained_price(t, [asset], ConstraintSet([(0.0,)]), x).values[t.root]
        zero_want = _childwise_max(t, dict(x.values))
        if zero_got != zero_want:
            violations.append((k, f"zero-set price {zero_got!r} != {zero_want!r}"))
    _verdict(9, "constrained pricing: band, zero set, grid oracle", violations)


def _childwise_max(tree, leaf_vals):
    def rec(v):
        if not tree.children[v]:
            return leaf_vals[v]
        return max(rec(c) for c in tree.children[v])
    return rec(tree.root)


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_american_agreement():
    rng = np.random.default_rng(1010)
    violations = []
    # 50 sublinear models, then 10 convex ones; both must match the enumeration
    for k in range(60):
        tree = random_tree(rng, max_periods=2)
        model = random_model(rng, tree, sublinear=k < 50)
        payoff = {v: float(rng.uniform(0.0, 2.0)) for v in range(tree.n_nodes)}
        nu, tau = StoppingTime.at_root(tree), StoppingTime.at_horizon(tree)
        res = american_price(model, payoff, nu, tau)
        want, _ = american_enumerated(model, payoff, nu, tau)
        if res.value.max_abs_diff(want) > 1e-9:
            violations.append((k, res.value.max_abs_diff(want)))
    _verdict(10, "American induction matches enumeration, sublinear and convex",
             violations)
