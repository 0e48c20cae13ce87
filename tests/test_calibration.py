"""Calibration: the verdict of the edge test and the column generation,
and the relative-entropy projection that picks the measure returned,
against the leaf-mass LP and the price bounds."""
import dataclasses
import os
import re
from unittest import mock

import numpy as np
import pytest

import tcpp.lp
import tcpp.market
from gen import martingale_assets, random_claim, random_trinomial
from oracles import calibration_feasible_lp, trinomial_mme_family
from tcpp.cli import main
from tcpp.errors import EnumerationOverflow, NoMartingaleMeasure, NumericalBreakdown
from tcpp.market import (AssetProcess, QuotedOption, calibrated_bounds,
                         calibration_feasible, mme_bounds)
from tcpp.marketfile import parse_market_file
from tcpp.settings import DEFAULT
from tcpp.tree import Claim, FiltrationTree, StoppingTime, lift_to_leaves

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
MARKETS = os.path.join(os.path.dirname(__file__), "markets")


_MIXTURE = tcpp.market._calibrated_mixture
_ENTROPY_PASS = tcpp.market._entropy_pass


def _project(*args):
    """:func:`calibration_feasible`, whose measure must be the projection's
    (R or the climb's), not the mixture of the column generation."""
    made = []

    def mixture(*a):
        made.append(_MIXTURE(*a))
        return made[-1]
    with mock.patch.object(tcpp.market, "_calibrated_mixture", mixture):
        got = calibration_feasible(*args)
    if got is not None and any(got is m for m in made):
        raise AssertionError("returned the column generation's mixture")
    return got


def _edge_table(tree, assets, settings=DEFAULT):
    """The vertex table of calibration's edge test, or None where it fails."""
    try:
        table = tcpp.market._vertex_table(tree, assets, settings)
    except NoMartingaleMeasure:
        return None
    return table if table.charged else None


def _mixture(tree, assets, quotes, settings=DEFAULT):
    """The column generation's mixture, or its None, run after the edge test
    on R, the quote-free projection, whatever R's prices."""
    table = _edge_table(tree, assets, settings)
    if table is None:
        return None
    steps = tcpp.market._level_steps(tree, tcpp.market._spot(tree, assets))
    pay = np.array([lift_to_leaves(tree, q.payoff) for q in quotes]).T
    bid, ask = np.array([(q.bid, q.ask) for q in quotes]).T
    first = tcpp.market._entropy_pass(tree, steps, pay, np.zeros(len(quotes))).mass
    return tcpp.market._calibrated_mixture(tree, table, first[list(tree.leaves)], pay, bid, ask,
                                           settings)


def _kl(tree, q) -> float:
    w = np.array([tree.leaf_weights[v] for v in tree.leaves])
    m = q.leaf_masses(tree)
    on = m > 0
    return float((m[on] * np.log(m[on] / w[on])).sum())


def _assert_calibrated(tree, assets, quotes, q, tol=DEFAULT.feasibility_tol) -> None:
    """Normalized, a martingale for each asset, every quote in its band to
    ``tol``, every density above the floor."""
    mass = q.node_masses(tree)
    assert abs(mass[tree.root] - 1.0) <= 1e-12
    for a in assets:
        for v in tree.internal_nodes():
            gap = sum(mass[c] * a.values[c] for c in tree.children[v]) - mass[v] * a.values[v]
            assert abs(gap) <= 1e-9, (a.name, v, gap)
    for quote in quotes:
        e = float(lift_to_leaves(tree, quote.payoff) @ q.leaf_masses(tree))
        assert quote.bid - tol <= e <= quote.ask + tol
    assert min(q.density.values()) > DEFAULT.equivalence_floor


def _market(rng, kind: str):
    """A seeded trinomial market of 1-4 periods (5 when ``deep``, with a
    point band), 1-2 assets and 1-3 quotes, some maturing at inner cuts,
    with a band or a node of the given kind."""
    periods = {"inner": 3, "deep": 5}.get(kind, int(rng.integers(1, 5)))
    tree = random_trinomial(rng, periods)
    assets = martingale_assets(rng, tree, int(rng.integers(1, 3)))
    if kind in ("no-kernel", "edge-kernel"):
        # the assets all rise at a node above the leaves, or all but one stays
        node = tree.parents[tree.leaves[int(rng.integers(len(tree.leaves)))]]
        values = [dict(a.values) for a in assets]
        for vals in values:
            for i, c in enumerate(tree.children[node]):
                stay = i == 0 and kind == "edge-kernel"
                vals[c] = vals[node] + (0.0 if stay else float(rng.uniform(0.1, 0.5)))
        assets = [AssetProcess(a.name, vals) for a, vals in zip(assets, values)]
    quotes = []
    for i in range(int(rng.integers(1, 4))):
        at = StoppingTime.at_time(tree, int(rng.integers(1, tree.horizon + 1)))
        x = Claim(at, {v: float(rng.uniform(0.0, 2.0)) for v in at.cut})
        if kind in ("no-kernel", "edge-kernel"):
            lo, hi = 0.0, 2.0
        else:
            lo, hi = mme_bounds(tree, assets, x)
        if kind == "disjoint" and i == 0:
            bid = hi + 0.1
            ask = bid + 0.1
        elif kind == "edge" and i == 0:
            bid, ask = (hi, hi + 0.1) if rng.random() < 0.5 else (lo - 0.1, lo)
        elif kind == "deep" and i == 0:
            bid = ask = rng.uniform(lo, hi)     # binds: tilts multiply along the paths
        else:
            bid, ask = sorted(rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 2))
        quotes.append(QuotedOption(f"Q{i}", x, float(bid), float(ask)))
    return tree, assets, quotes


KINDS = ("inside", "inner", "disjoint", "edge", "no-kernel", "edge-kernel", "deep")


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", KINDS)
def test_the_projection_agrees_with_the_leaf_mass_lp(kind, seed):
    rng = np.random.default_rng(1000 * KINDS.index(kind) + seed)
    tree, assets, quotes = _market(rng, kind)
    got = _project(tree, assets, quotes)
    want = calibration_feasible_lp(tree, assets, quotes)
    assert (got is None) == (want is None)
    if got is not None:
        _assert_calibrated(tree, assets, quotes, got)
        assert _kl(tree, got) <= _kl(tree, want) + 1e-9
    if kind in ("disjoint", "no-kernel", "edge-kernel"):
        assert got is None
    # the column generation, run whatever R's prices, reaches the same verdict
    mixed = _mixture(tree, assets, quotes)
    assert (mixed is None) == (want is None)
    if mixed is not None:
        _assert_calibrated(tree, assets, quotes, mixed)
    if want is None:
        # after the edge test, a None verdict makes one entropy pass and no climb step
        passes = []

        def entropy_pass(*a):
            passes.append(a)
            return _ENTROPY_PASS(*a)
        with mock.patch.object(tcpp.market, "_ascent", side_effect=AssertionError("climbed")), \
                mock.patch.object(tcpp.market, "_entropy_pass", entropy_pass):
            assert calibration_feasible(tree, assets, quotes) is None
        assert len(passes) == (0 if _edge_table(tree, assets) is None else 1)


def test_the_instances_cover_both_verdicts_and_bands_at_the_edge():
    verdicts = {kind: {_project(*_market(np.random.default_rng(1000 * i + s), kind))
                       is not None for s in range(8)} for i, kind in enumerate(KINDS)}
    assert verdicts["inside"] == {True, False} and verdicts["edge"] == {True, False}
    assert True in verdicts["inner"] and verdicts["deep"] == {True, False}


def test_a_multiplier_held_at_zero_agrees_with_the_leaf_mass_lp():
    md = parse_market_file(os.path.join(MARKETS, "held_at_zero.market"))
    got = _project(md.tree, md.assets, md.quotes)
    want = calibration_feasible_lp(md.tree, md.assets, md.quotes)
    assert got is not None and want is not None
    _assert_calibrated(md.tree, md.assets, md.quotes, got)
    assert _kl(md.tree, got) <= _kl(md.tree, want) + 1e-9
    # at a loose tolerance too: the column generation's masters, solved
    # before the climb, still solve
    loose = dataclasses.replace(DEFAULT, feasibility_tol=1e-2)
    got = _project(md.tree, md.assets, md.quotes, loose)
    _assert_calibrated(md.tree, md.assets, md.quotes, got, 1e-2)


@pytest.mark.parametrize("offset", [0.0, 10.0, 1000.0])
def test_a_band_at_the_edge_of_a_claim_far_from_zero_is_infeasible(offset):
    # the digital's highest price is 1/3, where the middle leaf has no mass;
    # an offset makes the dual's value large, so its rise reaches rounding
    # while the densities it drives to 0 are still above the floor
    tree = FiltrationTree.trinomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0, 3: 0.5})
    x = Claim(StoppingTime.at_horizon(tree), {1: offset + 1.0, 2: offset, 3: offset})
    quote = QuotedOption("D", x, offset + 1 / 3, offset + 0.5)
    assert calibration_feasible_lp(tree, [s], [quote]) is None
    assert _project(tree, [s], [quote]) is None


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-4, 1e-2])
def test_a_steep_projection_returns_the_mixture(tol):
    # a point band near the edge of its attainable prices: the projection's
    # least density is far below equivalence_floor, while the LP's measure,
    # equivalent and calibrated, has one above 1e-3; the mixture of R and
    # extreme martingale measures is calibrated with one above 1e-3 too, at
    # every tolerance
    md = parse_market_file(os.path.join(MARKETS, "steep_projection.market"))
    settings = dataclasses.replace(DEFAULT, feasibility_tol=tol)
    if tol == DEFAULT.feasibility_tol:
        want = calibration_feasible_lp(md.tree, md.assets, md.quotes)
        assert want is not None and min(want.density.values()) > 1e-3
    with pytest.raises(AssertionError, match="mixture"):
        _project(md.tree, md.assets, md.quotes, settings)
    got = calibration_feasible(md.tree, md.assets, md.quotes, settings)
    _assert_calibrated(md.tree, md.assets, md.quotes, got, tol)
    assert min(got.density.values()) > 1e-3


def test_nodes_with_too_many_kernel_supports_raise(monkeypatch, capsys):
    # 2 assets on the trinomial: 3 + 3 + 1 supports per node, above a cap of 6
    rng = np.random.default_rng(7)
    tree, assets, quotes = _market(rng, "inside")
    while len(assets) < 2:
        tree, assets, quotes = _market(rng, "inside")
    small = dataclasses.replace(DEFAULT, max_enum=6)
    with pytest.raises(EnumerationOverflow) as bounds:
        mme_bounds(tree, assets, quotes[0].payoff, small)
    with pytest.raises(EnumerationOverflow, match=f"^{re.escape(str(bounds.value))}$"):
        calibration_feasible(tree, assets, quotes, small)
    assert calibration_feasible(tree, assets, quotes) is not None
    # the demo's root has 3 + 3 kernel supports, as in ``bounds --kind mme``
    monkeypatch.setenv("TCPP_MAX_ENUM", "5")
    assert main(["calibrate", "--market", os.path.join(DEMOS, "trinomial.market")]) == 2
    assert capsys.readouterr().err == ("error: 6 kernel supports per node at time 0 (arity 3) "
                                       "exceed the cap 5\n")


def test_the_hedge_solve_meets_the_martingale_condition_at_wide_exponent_spreads():
    # two complete nodes (3 children, 2 assets): one martingale kernel each,
    # whatever the children's values; the spreads push a solve from h = 0
    # to kernels that follow the values instead
    drift = np.array([[[0.267, -0.113], [-0.375, -0.348], [0.355, 0.601]],
                      [[-0.699, 0.230], [-1.3e-05, -0.155], [0.460, 0.034]]])
    p = np.full((2, 3), 1 / 3)
    for spread in (0.0, 20.0, 70.0, 300.0):
        v = np.array([[0.0, spread / 2, spread], [spread, 0.0, spread / 3]])
        q, _ = tcpp.market._hedge(p, v, drift)
        assert np.abs(np.einsum("gc,gcd->gd", q, drift)).max() <= 1e-12


@pytest.mark.parametrize("periods, band", [(1, None), (2, (0.1, 0.2))])
def test_a_kernel_off_the_martingale_condition_raises(monkeypatch, periods, band):
    # the asset (2, 1, 0.5) on the uniform trinomial, and a digital on it
    # rising, quoted below its price under R: a hedge that returns P's
    # kernel makes R, the mixture's first column, miss the condition too
    tree = FiltrationTree.trinomial(periods)
    values = {tree.root: 1.0}
    for v in tree.internal_nodes():
        for c, f in zip(tree.children[v], (2.0, 1.0, 0.5)):
            values[c] = values[v] * f
    s = AssetProcess("S", values)
    digital = Claim(StoppingTime.at_horizon(tree),
                    {v: float(values[v] > 1.0) for v in tree.leaves})
    quotes = [] if band is None else [QuotedOption("D", digital, *band)]
    assert calibration_feasible(tree, [s], quotes) is not None
    monkeypatch.setattr(tcpp.market, "_hedge", lambda p, v, drift: (p, np.zeros(len(p))))
    with pytest.raises(NumericalBreakdown, match="martingale condition"):
        calibration_feasible(tree, [s], quotes)


def _seeded_markets():
    for i, kind in enumerate(KINDS):
        for seed in range(3):
            yield _market(np.random.default_rng(1000 * i + seed), kind)


def test_calibration_solves_no_lp_where_r_prices_every_quote_inside_its_band(monkeypatch):
    # the seeded markets with each band moved around R's price, and those
    # that fail the edge test as they are: R, or None, with no LP
    rng = np.random.default_rng(5)
    markets = []
    for tree, assets, quotes in _seeded_markets():
        r = calibration_feasible(tree, assets, [])
        if r is not None:
            prices = [float(lift_to_leaves(tree, q.payoff) @ r.leaf_masses(tree)) for q in quotes]
            widths = rng.uniform(1e-6, 0.2, (len(quotes), 2))
            quotes = [QuotedOption(q.name, q.payoff, e - lo, e + hi)
                      for q, e, (lo, hi) in zip(quotes, prices, widths)]
        markets.append((tree, assets, quotes, r))

    def refuse(*args, **kwargs):
        raise AssertionError("lp.solve called")
    monkeypatch.setattr(tcpp.lp, "solve", refuse)
    monkeypatch.setattr(tcpp.market, "solve", refuse)
    for tree, assets, quotes, r in markets:
        assert calibration_feasible(tree, assets, quotes) == r
    assert sum(r is None for *_, r in markets) >= 6 and sum(r is not None for *_, r in markets) >= 12


def test_every_lp_of_calibration_is_a_master_over_its_columns(monkeypatch):
    # each round adds at most one column to the first, R: the n-th master LP
    # of a calibration has at most n columns and their violation s, never
    # one over the leaves
    calls = []

    def small(lp, settings=DEFAULT):
        calls.append(len(lp.objective))
        if calls[-1] > len(calls) + 1:
            raise AssertionError(f"an LP of {calls[-1]} variables in round {len(calls)}")
        return tcpp.lp.solve(lp, settings)
    monkeypatch.setattr(tcpp.market, "solve", small)
    solved = 0
    for market in _seeded_markets():
        calls.clear()
        calibration_feasible(*market)
        solved += bool(calls)
    assert solved >= 5
    calls.clear()
    md = parse_market_file(os.path.join(MARKETS, "steep_projection.market"))
    calibration_feasible(md.tree, md.assets, md.quotes)
    assert calls and max(calls) < len(md.tree.leaves)
    calls.clear()
    assert main(["calibrate", "--market", os.path.join(DEMOS, "trinomial.market")]) == 0
    assert calls      # the demo's quote binds at its ask


def test_without_binding_quotes_it_is_the_minimal_entropy_martingale_measure():
    # asset (2, 1, 0.5) from 1 on the uniform trinomial: q = (t/2, 1 - 1.5t, t)
    tree = FiltrationTree.trinomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0, 3: 0.5})
    q = _project(tree, [s], [])
    t = np.linspace(1e-9, 2 / 3 - 1e-9, 200001)
    grid = np.array(trinomial_mme_family(t)) * 3.0
    kl = (grid * np.log(grid)).sum(0) / 3.0
    best = grid[:, kl.argmin()]
    assert np.abs(np.array([q.density[v] for v in tree.leaves]) - best).max() <= 1e-4
    # a band that already holds the price stops at theta = 0: the same measure
    digital = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0, 3: 0.0})
    e = q.density[1] / 3.0
    assert _project(tree, [s], [QuotedOption("D", digital, e - 0.01, e + 0.01)]) == q
    # a band below the price binds at its ask, the demo market's case
    bound = _project(tree, [s], [QuotedOption("D", digital, 0.1, 0.2)])
    assert np.abs(np.array([bound.density[v] for v in tree.leaves]) - [0.6, 1.2, 1.2]).max() <= 1e-12


def test_replicable_quotes_and_a_payoff_quoted_twice():
    # binomial H=2 is complete: a time-1 claim has one price, 1/3
    tree = FiltrationTree.binomial(2)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5, 3: 4.0, 4: 1.0, 5: 1.0, 6: 0.25})
    early = Claim(StoppingTime.at_time(tree, 1), {1: 1.0, 2: 0.0})
    assert _project(tree, [s], [QuotedOption("E", early, 1 / 3, 1 / 3)]) is not None
    assert _project(tree, [s], [QuotedOption("E", early, 0.34, 0.34)]) is None
    # a trinomial payoff quoted by two dealers, both asks below its price
    # under the first measure: the bands overlap or do not
    tree = FiltrationTree.trinomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0, 3: 0.5})
    digital = Claim(StoppingTime.at_horizon(tree), {1: 1.0, 2: 0.0, 3: 0.0})
    assert _project(tree, [s], []).density[1] / 3.0 > 0.2
    both = [QuotedOption("A", digital, 0.05, 0.15), QuotedOption("B", digital, 0.1, 0.2)]
    q = _project(tree, [s], both)
    _assert_calibrated(tree, [s], both, q)
    assert abs(q.density[1] / 3.0 - 0.15) <= 1e-9      # the intersection's end nearest P
    for apart in ([QuotedOption("A", digital, 0.05, 0.1), QuotedOption("B", digital, 0.12, 0.3)],
                  [QuotedOption("A", digital, 0.05, 0.1), QuotedOption("B", digital, 0.12, 0.2)]):
        assert _project(tree, [s], apart) is None
    # the asset itself, quoted outside its price 1: D climbs without end
    forward = Claim(StoppingTime.at_horizon(tree), {1: 2.0, 2: 1.0, 3: 0.5})
    assert _project(tree, [s], [QuotedOption("F", forward, 1.1, 1.2)]) is None
    assert _project(tree, [s], [QuotedOption("F", forward, 0.9, 1.1),
                                QuotedOption("D", digital, 0.1, 0.2)]) is not None


@pytest.mark.parametrize("seed", range(8))
def test_prices_under_the_calibrated_measure_lie_inside_both_bounds(seed):
    rng = np.random.default_rng(seed)
    q = None
    while q is None:
        tree, assets, quotes = _market(rng, "inside")
        q = _project(tree, assets, quotes)
    for _ in range(3):
        x = random_claim(rng, tree)
        e = float(lift_to_leaves(tree, x) @ q.leaf_masses(tree))
        lo, hi = calibrated_bounds(tree, assets, quotes, x)
        assert lo - 1e-7 <= e <= hi + 1e-7
        b = mme_bounds(tree, assets, x)
        assert b.lower - 1e-9 <= e <= b.upper + 1e-9
