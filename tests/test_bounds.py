"""Martingale and good-deal bounds as one node-local induction, against the
leaf-mass LP, the cutting-plane loop and a one-asset segment recursion."""
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from gen import (martingale_assets, random_claim, random_irregular_tree, random_tree,
                 random_trinomial, relabelled)
from oracles import good_deal_bounds_cuts, good_deal_segment_oracle, mme_bounds_lp
from tcpp.errors import (EmptyGoodDealSet, EnumerationOverflow, NoMartingaleMeasure,
                         TcppError)
from tcpp.market import AssetProcess, GoodDealCaps, good_deal_bounds, mme_bounds
from tcpp.pricing import random_stopping_time
from tcpp.settings import Settings
from tcpp.tree import Claim, FiltrationTree, StoppingTime

INF = float("inf")


def trinomial_call(periods: int):
    """The asset with factors 2, 1, 0.5 per period on the uniform trinomial
    tree, and a call on it struck at 1."""
    tree = FiltrationTree.trinomial(periods)
    s = {tree.root: 1.0}
    for v in tree.internal_nodes():
        for c, f in zip(tree.children[v], (2.0, 1.0, 0.5)):
            s[c] = s[v] * f
    call = Claim(StoppingTime.at_horizon(tree), {b: max(s[b] - 1.0, 0.0) for b in tree.leaves})
    return tree, AssetProcess("S", s), call


@pytest.mark.parametrize("cap", [1.05, 1.1])
def test_tight_caps_answer_on_trinomial_h4(cap):
    tree, s, call = trinomial_call(4)
    lo, hi = good_deal_bounds(tree, [s], GoodDealCaps.uniform(cap), call)
    base = mme_bounds(tree, [s], call)
    assert np.isfinite([lo, hi]).all()
    assert base.lower - 1e-12 <= lo <= hi <= base.upper + 1e-12
    want = good_deal_segment_oracle(tree, s, cap, call)
    assert abs(lo - want[0]) <= 1e-9 and abs(hi - want[1]) <= 1e-9
    if cap == 1.05:
        assert abs(lo - 0.381651) <= 1e-6 and abs(hi - 0.434304) <= 1e-6


@pytest.mark.parametrize("cap", [1.05, 1.1])
def test_tight_caps_answer_fast_on_trinomial_h5(cap):
    tree, s, call = trinomial_call(5)
    start = time.perf_counter()
    lo, hi = good_deal_bounds(tree, [s], GoodDealCaps.uniform(cap), call)
    assert time.perf_counter() - start < 1.0
    want = good_deal_segment_oracle(tree, s, cap, call)
    assert abs(lo - want[0]) <= 1e-9 and abs(hi - want[1]) <= 1e-9


def test_empty_root_names_the_node_that_empties_it():
    # node 1's asset rises on every child, and the root must charge node 1,
    # the only child below the root's value
    tree = FiltrationTree.trinomial(2)
    vals = {0: 1.0, 1: 0.5, 2: 2.0, 3: 3.0}
    for node in (1, 2, 3):
        for c, f in zip(tree.children[node], (2.0, 1.5, 1.2)
                        if node == 1 else (2.0, 1.0, 0.5)):
            vals[c] = vals[node] * f
    s = AssetProcess("S", vals)
    x = Claim(StoppingTime.at_horizon(tree), {b: 1.0 for b in tree.leaves})
    with pytest.raises(NoMartingaleMeasure, match="at node 1"):
        mme_bounds(tree, [s], x)
    with pytest.raises(NoMartingaleMeasure, match="at node 1"):
        good_deal_bounds(tree, [s], GoodDealCaps.uniform(2.0), x)


def test_caps_that_exclude_every_kernel_raise_empty_good_deal_set():
    tree, s, call = trinomial_call(1)
    with pytest.raises(EmptyGoodDealSet, match="at node 0"):
        good_deal_bounds(tree, [s], GoodDealCaps.uniform(1.0), call)   # P is no martingale


def test_parent_avoids_an_empty_child():
    # node 1 has no martingale kernel; the root kernel (0, 2/3, 1/3) avoids it
    tree = FiltrationTree.trinomial(2)
    vals = {0: 1.0, 1: 2.0, 2: 1.25, 3: 0.5}
    for node in (1, 2, 3):
        for c, f in zip(tree.children[node], (1.5, 1.2, 1.1) if node == 1 else (2.0, 1.0, 0.5)):
            vals[c] = vals[node] * f
    s = AssetProcess("S", vals)
    rng = np.random.default_rng(5)
    x = Claim(StoppingTime.at_horizon(tree), {b: float(rng.uniform(-1, 1)) for b in tree.leaves})
    b = mme_bounds(tree, [s], x)
    lo, hi, margin = mme_bounds_lp(tree, [s], x)
    assert abs(b.lower - lo) <= 1e-9 and abs(b.upper - hi) <= 1e-9
    assert not b.has_equivalent and margin <= 1e-12


def test_support_count_is_capped():
    tree, s, call = trinomial_call(2)
    tight = Settings(max_enum=6)        # 3 + 3 supports without a cap, 7 with one
    mme_bounds(tree, [s], call, tight)
    with pytest.raises(EnumerationOverflow, match="7 kernel supports"):
        good_deal_bounds(tree, [s], GoodDealCaps.uniform(1.5), call, tight)


def test_non_finite_claim_rejected():
    tree, s, call = trinomial_call(1)
    bad = Claim(call.at, {**call.values, 1: float("nan")})
    with pytest.raises(TcppError, match="at node 1"):
        mme_bounds(tree, [s], bad)


# -- properties over random trees ----------------------------------------------

def martingale_market(rng: np.random.Generator, n_assets: int, trinomial: bool = False):
    """A random tree, or a trinomial one of 1-3 periods, and assets that are
    martingales under one kernel near P at every node, with a random claim
    at the horizon."""
    tree = (random_trinomial(rng, int(rng.integers(1, 4))) if trinomial
            else random_tree(rng, max_periods=4, max_branch=4))
    assets = martingale_assets(rng, tree, n_assets)
    x = Claim(StoppingTime.at_horizon(tree),
              {b: float(rng.uniform(-1.0, 1.0)) for b in tree.leaves})
    return tree, assets, x


def _close(got, want, tol=1e-9):
    return all(abs(g - w) <= tol * (1.0 + abs(w)) for g, w in zip(got, want))


PROPERTY = hsettings(derandomize=True, database=None, max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.filter_too_much,
                                            HealthCheck.too_slow])


# twice the examples, so that each tree family keeps about PROPERTY's number
@hsettings(PROPERTY, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 2),
       caps=st.lists(st.floats(1.0, 3.0), min_size=2, max_size=2, unique=True),
       trinomial=st.booleans())
def test_good_deal_sets_nest_inside_the_martingale_bounds(seed, n_assets, caps, trinomial):
    tree, assets, x = martingale_market(np.random.default_rng(seed), n_assets, trinomial)
    base = mme_bounds(tree, assets, x)
    assert good_deal_bounds(tree, assets, GoodDealCaps.uniform(INF), x) == tuple(base)
    small, large = sorted(caps)
    try:
        outer = good_deal_bounds(tree, assets, GoodDealCaps.uniform(large), x)
    except EmptyGoodDealSet:
        with pytest.raises(EmptyGoodDealSet):
            good_deal_bounds(tree, assets, GoodDealCaps.uniform(small), x)
        return
    assert base.lower - 1e-9 <= outer[0] <= outer[1] <= base.upper + 1e-9
    try:
        inner = good_deal_bounds(tree, assets, GoodDealCaps.uniform(small), x)
    except EmptyGoodDealSet:
        return
    assert outer[0] - 1e-9 <= inner[0] <= inner[1] <= outer[1] + 1e-9


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 2))
def test_good_deal_bounds_widen_with_per_node_caps_up_to_the_martingale_bounds(seed, n_assets):
    """On regular, irregular and relabelled trees, with a claim at a random
    stopping time: raising every node's cap widens the good-deal interval,
    which stays inside the martingale bounds and reaches them at cap inf; a
    cap whose set is empty empties every smaller one's."""
    rng = np.random.default_rng(seed)
    tree = random_irregular_tree(rng) if seed % 2 else random_tree(rng, max_periods=4)
    if seed % 3 == 2:
        tree = relabelled(tree, rng)
    assets = martingale_assets(rng, tree, n_assets)
    x = random_claim(rng, tree, random_stopping_time(tree, rng))
    base = mme_bounds(tree, assets, x)
    spread = dict(zip(tree.internal_nodes(), rng.uniform(0.0, 1.0, len(tree.internal_nodes()))))
    prev = None
    for scale in (0.0, 0.02, 0.1, 0.3, 1.0, 3.0, INF):
        caps = GoodDealCaps(None, {v: 1.0 + s * scale if s * scale < INF else INF
                                   for v, s in spread.items()})
        try:
            got = good_deal_bounds(tree, assets, caps, x)
        except EmptyGoodDealSet:
            assert prev is None, scale
            continue
        assert base.lower - 1e-9 <= got[0] <= got[1] <= base.upper + 1e-9
        if prev is not None:
            assert got[0] <= prev[0] + 1e-9 and prev[1] - 1e-9 <= got[1]
        prev = got
    assert prev == (base.lower, base.upper)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 2))
def test_martingale_bounds_match_the_leaf_mass_lp(seed, n_assets):
    tree, assets, x = martingale_market(np.random.default_rng(seed), n_assets)
    assume(len(tree.leaves) <= 40)
    b = mme_bounds(tree, assets, x)
    lo, hi, margin = mme_bounds_lp(tree, assets, x)
    assert _close((b.lower, b.upper), (lo, hi))
    assert b.has_equivalent == (margin > 1e-12)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 2),
       default=st.floats(1.3, 2.0), node_caps=st.lists(st.floats(1.3, 2.0), max_size=3))
def test_good_deal_bounds_match_the_cutting_planes(seed, n_assets, default, node_caps):
    tree, assets, x = martingale_market(np.random.default_rng(seed), n_assets)
    assume(len(tree.leaves) <= 40)
    internal = tree.internal_nodes()
    caps = GoodDealCaps(default, {internal[i % len(internal)]: c
                                  for i, c in enumerate(node_caps)})
    try:
        # the loop stops once mass times violation is within ten times the
        # feasibility tolerance, so a tighter one makes it exact to 1e-9
        want = good_deal_bounds_cuts(tree, assets, caps, x,
                                     Settings(feasibility_tol=1e-10), cut_tol=1e-10)
    except TcppError:          # the cut loop did not converge
        return
    assert _close(good_deal_bounds(tree, assets, caps, x), want)
