"""One rule for the tolerance: a function that returns a number computes it
at ``tcpp.settings.pinned`` settings, so a ``feasibility_tol`` looser than
the default leaves every bound, constrained price and minimal penalty as
it is at the default, to the bit; verdicts compare at the caller's."""
import dataclasses
import os

import numpy as np

from gen import menu_mixture, random_model, random_tree
from test_constrained import _instances as constrained_instances
from test_vertex_table import _bits, _mme
from test_vertex_table import _market as seeded_market
from tcpp.market import (AssetProcess, ConstraintSet, GoodDealCaps, QuotedOption,
                         calibrated_bounds, constrained_price, good_deal_bounds, mme_bounds)
from tcpp.marketfile import parse_claim_file, parse_market_file
from tcpp.pricing import random_stopping_time
from tcpp.scenario import minimal_penalty
from tcpp.settings import DEFAULT, Settings
from tcpp.tree import Claim, FiltrationTree, StoppingTime

MARKETS = os.path.join(os.path.dirname(__file__), "markets")
LOOSE = (1e-4, 1e-2)
CAPS = (1.2, 1.5, float("inf"))


def _loosened(settings: Settings, tol: float) -> Settings:
    return dataclasses.replace(settings, feasibility_tol=tol)


def _bounds(tree, assets, quotes, x, settings):
    """Every bound of ``x``, each as ``_bits`` of its outcome."""
    return ([_bits(lambda: _mme(tree, assets, x, settings)),
             _bits(lambda: calibrated_bounds(tree, assets, quotes, x, settings))]
            + [_bits(lambda: good_deal_bounds(tree, assets, GoodDealCaps.uniform(cap), x,
                                              settings)) for cap in CAPS])


def _bound_markets():
    """The seeded markets of ``test_vertex_table`` (every fourth), each with
    a quote of its call, and ``steep_projection`` with its quote's payoff."""
    for seed in range(0, 240, 4):
        tree, assets, claims, settings = seeded_market(seed)
        rng = np.random.default_rng(seed)
        pay = claims[1].array
        bid, ask = np.sort(rng.uniform(pay.min(), pay.max(), 2)).tolist()
        yield seed, tree, assets, [QuotedOption("C", claims[1], bid, ask)], claims, settings
    md = parse_market_file(os.path.join(MARKETS, "steep_projection.market"))
    x = parse_claim_file(os.path.join(MARKETS, "steep_projection.claim"), md.tree)
    yield "steep", md.tree, md.assets, md.quotes, [x], md.settings


def test_bounds_at_a_loose_tolerance_are_the_default_bounds_bit_for_bit():
    # at 1e-2 the vertex table once kept kernels with negative weights, and
    # steep_projection's martingale lower bound fell to 0.4582515001837066,
    # below every martingale measure's price
    for name, tree, assets, quotes, claims, settings in _bound_markets():
        for x in claims:
            want = _bounds(tree, assets, quotes, x, settings)
            for tol in LOOSE:
                assert _bounds(tree, assets, quotes, x, _loosened(settings, tol)) == want, \
                    (name, tol)


def test_steep_projection_bounds_at_a_loose_tolerance():
    md = parse_market_file(os.path.join(MARKETS, "steep_projection.market"))
    x = parse_claim_file(os.path.join(MARKETS, "steep_projection.claim"), md.tree)
    loose = _loosened(md.settings, 1e-2)
    assert mme_bounds(md.tree, md.assets, x, loose).lower == 0.4586167057262128
    assert good_deal_bounds(md.tree, md.assets, GoodDealCaps.uniform(1.2), x, loose) == \
        (0.7032466225150988, 1.419418027747061)


def _off_zero_instances():
    """Hedge sets that miss the zero position by 1e-5: at the default
    tolerance constrained pricing refuses them, as at any looser one."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        tree = FiltrationTree.from_branching([int(rng.integers(2, 4))] * int(rng.integers(1, 3)))
        assets = [AssetProcess(f"S{j}", {v: float(np.exp(rng.normal(0.0, 0.3)))
                                         for v in range(tree.n_nodes)}) for j in range(2)]
        h = ConstraintSet([(1.0, 1.0), (-1.0, -1.0 + 1e-5)])
        x = Claim(StoppingTime.at_horizon(tree), {b: float(rng.uniform(-1.0, 2.0))
                                                  for b in tree.leaves})
        yield tree, assets, h, x


def test_constrained_prices_at_a_loose_tolerance_are_the_default_prices():
    cases = [case[:4] for case in constrained_instances(90)] + list(_off_zero_instances())
    for i, (tree, assets, h_set, x) in enumerate(cases):
        want = _bits(lambda: (constrained_price(tree, assets, h_set, x).values[tree.root],))
        for tol in LOOSE:
            got = _bits(lambda: (constrained_price(tree, assets, h_set, x,
                                                   _loosened(DEFAULT, tol)).values[tree.root],))
            assert got == want, (i, tol)


def test_minimal_penalties_at_a_loose_tolerance_are_the_default_penalties():
    # at 1e-2 the support search once took menu mixtures with weights down
    # to -1e-2, below the conjugate's minimum
    rng = np.random.default_rng(5)
    for i in range(80):
        tree = random_tree(rng, 3, 4)
        model = random_model(rng, tree, 5)
        r = menu_mixture(rng, model)
        tau = random_stopping_time(tree, rng)
        sigma = random_stopping_time(tree, rng, hi=tau)
        want = minimal_penalty(model, r, sigma, tau).array.tobytes()
        for tol in LOOSE:
            got = minimal_penalty(model, r, sigma, tau, _loosened(DEFAULT, tol))
            assert got.array.tobytes() == want, (i, tol)
