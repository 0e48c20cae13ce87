"""Calibration: the verdict of the edge test and the column generation,
and the measure returned, R (the product of the mean vertex kernels) or the
column generation's mixture, against the leaf-mass LP and the price bounds."""
import dataclasses
import os
import re
from unittest import mock

import numpy as np
import pytest

import tcpp.lp
import tcpp.market
from gen import martingale_assets, random_claim, random_trinomial
from oracles import calibration_feasible_lp
from tcpp.cli import main
from tcpp.errors import EnumerationOverflow, NoMartingaleMeasure, NumericalBreakdown
from tcpp.market import (AssetProcess, QuotedOption, calibrated_bounds,
                         calibration_feasible, mme_bounds)
from tcpp.marketfile import parse_market_file
from tcpp.settings import DEFAULT
from tcpp.tree import Claim, FiltrationTree, StoppingTime, lift_to_leaves

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
MARKETS = os.path.join(os.path.dirname(__file__), "markets")


def _returns_mixture(*args) -> bool:
    """Whether :func:`calibration_feasible` returns the column generation's
    mixture, not R."""
    made = []
    mixture = tcpp.market._calibrated_mixture
    with mock.patch.object(tcpp.market, "_calibrated_mixture",
                           lambda *a: made.append(mixture(*a)) or made[-1]):
        got = calibration_feasible(*args)
    return got is not None and any(got is m for m in made)


def _edge_table(tree, assets, settings=DEFAULT):
    """The vertex table of calibration's edge test, or None where it fails."""
    try:
        table = tcpp.market._vertex_table(tree, assets, settings)
    except NoMartingaleMeasure:
        return None
    return table if table.charged else None


def _mixture(tree, assets, quotes, settings=DEFAULT):
    """The column generation's mixture, or its None, run after the edge test
    on R, the measure without quotes, whatever R's prices."""
    table = _edge_table(tree, assets, settings)
    if table is None:
        return None
    first = calibration_feasible(tree, assets, [], settings).leaf_masses(tree)
    pay = np.array([lift_to_leaves(tree, q.payoff) for q in quotes]).T
    bid, ask = np.array([(q.bid, q.ask) for q in quotes]).T
    return tcpp.market._calibrated_mixture(tree, table, first, pay, bid, ask, settings)


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
def test_the_verdict_agrees_with_the_leaf_mass_lp(kind, seed):
    rng = np.random.default_rng(1000 * KINDS.index(kind) + seed)
    tree, assets, quotes = _market(rng, kind)
    got = calibration_feasible(tree, assets, quotes)
    want = calibration_feasible_lp(tree, assets, quotes)
    assert (got is None) == (want is None)
    if got is not None:
        _assert_calibrated(tree, assets, quotes, got)
    if kind in ("disjoint", "no-kernel", "edge-kernel"):
        assert got is None
    # the column generation, run whatever R's prices, reaches the same verdict
    mixed = _mixture(tree, assets, quotes)
    assert (mixed is None) == (want is None)
    if mixed is not None:
        _assert_calibrated(tree, assets, quotes, mixed)


def test_the_instances_cover_both_verdicts_and_bands_at_the_edge():
    verdicts = {kind: {calibration_feasible(*_market(np.random.default_rng(1000 * i + s), kind))
                       is not None for s in range(8)} for i, kind in enumerate(KINDS)}
    assert verdicts["inside"] == {True, False} and verdicts["edge"] == {True, False}
    assert True in verdicts["inner"] and verdicts["deep"] == {True, False}


def test_a_multiplier_held_at_zero_agrees_with_the_leaf_mass_lp():
    md = parse_market_file(os.path.join(MARKETS, "held_at_zero.market"))
    got = calibration_feasible(md.tree, md.assets, md.quotes)
    want = calibration_feasible_lp(md.tree, md.assets, md.quotes)
    assert got is not None and want is not None
    _assert_calibrated(md.tree, md.assets, md.quotes, got)
    # at a loose tolerance too: the column generation's masters, pinned to
    # the default tolerance, still solve
    loose = dataclasses.replace(DEFAULT, feasibility_tol=1e-2)
    got = calibration_feasible(md.tree, md.assets, md.quotes, loose)
    _assert_calibrated(md.tree, md.assets, md.quotes, got, 1e-2)


@pytest.mark.parametrize("offset", [0.0, 10.0, 1000.0])
def test_a_band_at_the_edge_of_a_claim_far_from_zero_is_infeasible(offset):
    # the digital's highest price is 1/3, where the middle leaf has no mass;
    # an offset makes the claims of the column generation large, and their
    # rounding with them
    tree = FiltrationTree.trinomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 1.0, 3: 0.5})
    x = Claim(StoppingTime.at_horizon(tree), {1: offset + 1.0, 2: offset, 3: offset})
    quote = QuotedOption("D", x, offset + 1 / 3, offset + 0.5)
    assert calibration_feasible_lp(tree, [s], [quote]) is None
    assert calibration_feasible(tree, [s], [quote]) is None


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-4, 1e-2])
def test_a_steep_projection_returns_the_mixture(tol):
    # a point band near the edge of its attainable prices, which R misses:
    # the LP's measure, equivalent and calibrated, has a least density above
    # 1e-3; the mixture of R and extreme martingale measures is calibrated
    # with one above 1e-3 too, at every tolerance
    md = parse_market_file(os.path.join(MARKETS, "steep_projection.market"))
    settings = dataclasses.replace(DEFAULT, feasibility_tol=tol)
    if tol == DEFAULT.feasibility_tol:
        want = calibration_feasible_lp(md.tree, md.assets, md.quotes)
        assert want is not None and min(want.density.values()) > 1e-3
    assert _returns_mixture(md.tree, md.assets, md.quotes, settings)
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


def _trinomial(periods: int):
    """The asset (2, 1, 0.5) per period from 1 on the uniform trinomial tree,
    and a digital on its rise."""
    tree = FiltrationTree.trinomial(periods)
    values = {tree.root: 1.0}
    for v in tree.internal_nodes():
        for c, f in zip(tree.children[v], (2.0, 1.0, 0.5)):
            values[c] = values[v] * f
    digital = Claim(StoppingTime.at_horizon(tree),
                    {v: float(values[v] > 1.0) for v in tree.leaves})
    return tree, AssetProcess("S", values), digital


@pytest.mark.parametrize("periods, band", [(1, None), (2, (0.1, 0.2))])
def test_a_kernel_off_the_martingale_condition_raises(monkeypatch, periods, band):
    # the asset (2, 1, 0.5) on the uniform trinomial, and a digital on it
    # rising, quoted below its price under R: R's kernels made P's, which
    # miss the condition, raise before R is returned or is the mixture's
    # first column
    tree, s, digital = _trinomial(periods)
    quotes = [] if band is None else [QuotedOption("D", digital, *band)]
    assert calibration_feasible(tree, [s], quotes) is not None
    monkeypatch.setattr(tree, "product_down", lambda kernel: tree._p_mass)
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
    assert calls      # the demo's quote binds at its bid


@pytest.mark.parametrize("periods", [1, 2])
def test_without_quotes_it_is_the_product_of_the_mean_vertex_kernels(periods):
    # asset (2, 1, 0.5) per period on the uniform trinomial: the supports
    # {m}, {u, m} and {m, d} each give the vertex (0, 1, 0), and {u, d}
    # gives (1/3, 0, 2/3), so every node's mean kernel is (1/12, 3/4, 1/6)
    tree, s, *_ = _trinomial(periods)
    q = calibration_feasible(tree, [s], [])
    mean = np.array([1 / 12, 3 / 4, 1 / 6])
    for leaf in tree.leaves:
        path = tree.path(leaf)
        want = np.prod([3.0 * mean[tree.children[v].index(c)] for v, c in zip(path, path[1:])])
        assert abs(q.density[leaf] - want) <= 1e-12
    _assert_calibrated(tree, [s], [], q)


def test_replicable_quotes_and_a_payoff_quoted_twice():
    # binomial H=2 is complete: a time-1 claim has one price, 1/3
    tree = FiltrationTree.binomial(2)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5, 3: 4.0, 4: 1.0, 5: 1.0, 6: 0.25})
    early = Claim(StoppingTime.at_time(tree, 1), {1: 1.0, 2: 0.0})
    point = [QuotedOption("E", early, 1 / 3, 1 / 3)]
    _assert_calibrated(tree, [s], point, calibration_feasible(tree, [s], point))
    assert calibration_feasible(tree, [s], [QuotedOption("E", early, 0.34, 0.34)]) is None
    # a trinomial payoff quoted by two dealers, one band around its price
    # under R, 1/12, and one above it: the bands overlap or do not
    tree, s, digital = _trinomial(1)
    both = [QuotedOption("A", digital, 0.05, 0.15), QuotedOption("B", digital, 0.1, 0.2)]
    _assert_calibrated(tree, [s], both, calibration_feasible(tree, [s], both))
    for apart in ([QuotedOption("A", digital, 0.05, 0.1), QuotedOption("B", digital, 0.12, 0.3)],
                  [QuotedOption("A", digital, 0.05, 0.1), QuotedOption("B", digital, 0.12, 0.2)]):
        assert calibration_feasible(tree, [s], apart) is None
    # the asset itself, quoted outside its price 1 or around it
    forward = Claim(StoppingTime.at_horizon(tree), {1: 2.0, 2: 1.0, 3: 0.5})
    assert calibration_feasible(tree, [s], [QuotedOption("F", forward, 1.1, 1.2)]) is None
    around = [QuotedOption("F", forward, 0.9, 1.1), QuotedOption("D", digital, 0.1, 0.2)]
    _assert_calibrated(tree, [s], around, calibration_feasible(tree, [s], around))


@pytest.mark.parametrize("seed", range(8))
def test_prices_under_the_calibrated_measure_lie_inside_both_bounds(seed):
    rng = np.random.default_rng(seed)
    q = None
    while q is None:
        tree, assets, quotes = _market(rng, "inside")
        q = calibration_feasible(tree, assets, quotes)
    for _ in range(3):
        x = random_claim(rng, tree)
        e = float(lift_to_leaves(tree, x) @ q.leaf_masses(tree))
        lo, hi = calibrated_bounds(tree, assets, quotes, x)
        assert lo - 1e-7 <= e <= hi + 1e-7
        b = mme_bounds(tree, assets, x)
        assert b.lower - 1e-9 <= e <= b.upper + 1e-9


LOOSE = dataclasses.replace(DEFAULT, feasibility_tol=1e-2)


def test_a_replicable_quote_has_one_price_at_a_loose_tolerance():
    # the first quote of this market is replicable, and its band lies above
    # its price; vertex kernels that miss their sum or martingale rows by
    # up to a loose tolerance once widened its bounds to [0.318, 1.371] and
    # made the market feasible
    tree, assets, quotes = _market(np.random.default_rng(2002), "disjoint")
    point = mme_bounds(tree, assets, quotes[0].payoff)
    assert point.lower == point.upper
    for lo, hi in (mme_bounds(tree, assets, quotes[0].payoff, LOOSE),
                   calibrated_bounds(tree, assets, [], quotes[0].payoff, LOOSE)):
        assert abs(lo - point.lower) <= 1e-9 and abs(hi - point.lower) <= 1e-9
    assert calibration_feasible(tree, assets, quotes, LOOSE) is None


def test_the_calibrated_bounds_solve_their_masters_at_a_loose_tolerance():
    # masters solved at the loose tolerance itself raised NumericalBreakdown
    # on 17 of these 40 markets; the bounds nest inside the unquoted ones,
    # and cross where no measure prices every quote inside its band
    for kind in ("inside", "inner", "edge", "deep"):
        for seed in range(10):
            rng = np.random.default_rng(1000 * KINDS.index(kind) + seed)
            tree, assets, quotes = _market(rng, kind)
            x = random_claim(rng, tree)
            lo, hi = calibrated_bounds(tree, assets, quotes, x, LOOSE)
            b = mme_bounds(tree, assets, x, LOOSE)
            assert b.lower - 1e-7 <= lo and hi <= b.upper + 1e-7, (kind, seed)
