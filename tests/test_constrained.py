"""Constrained pricing as level-batched matrix games, against one LP per node."""
import numpy as np
import pytest

import tcpp.market
from gen import random_irregular_tree
from oracles import constrained_price_lp, game_bounds_enumerated
from tcpp.errors import EnumerationOverflow, NumericalBreakdown, TcppError
from tcpp.market import AssetProcess, ConstraintSet, _game_bounds, constrained_price
from tcpp.pricing import random_stopping_time
from tcpp.settings import DEFAULT, Settings
from tcpp.tree import Claim, FiltrationTree, StoppingTime

HEDGE_KINDS = ("zero", "scattered", "box", "integer", "duplicated")


def _tree(rng, i: int) -> FiltrationTree:
    if i % 3 == 2:
        return random_irregular_tree(rng)
    periods = int(rng.integers(1, 4))
    return FiltrationTree.from_branching([int(rng.integers(1, 5)) for _ in range(periods)])


def _assets(rng, tree, d: int) -> list[AssetProcess]:
    out = []
    for j in range(d):
        vals = {v: float(np.exp(rng.normal(0.0, 0.3))) for v in range(tree.n_nodes)}
        if rng.random() < 0.2:   # a flat asset: every drift is 0
            vals = dict.fromkeys(vals, 1.0)
        out.append(AssetProcess(f"S{j}", vals))
    return out


def _hedge(rng, kind: str, d: int) -> ConstraintSet:
    if kind == "zero":
        return ConstraintSet([(0.0,) * d])
    if kind == "box":
        lo, hi = rng.uniform(0.0, 2.0, d), rng.uniform(0.0, 2.0, d)
        a = np.vstack([np.eye(d), -np.eye(d)])
        return ConstraintSet.from_halfspaces(a, np.concatenate([hi, lo]))
    if kind == "integer":
        pts = rng.integers(-2, 3, (int(rng.integers(1, 5)), d)).astype(float)
        return ConstraintSet([tuple(p) for p in np.vstack([pts, -pts])])
    pts = rng.normal(0.0, 1.0, (int(rng.integers(1, 9)), d))
    pts -= pts.mean(axis=0)     # the centroid is in the hull, so 0 is too
    verts = [tuple(p) for p in pts]
    if kind == "duplicated":
        verts = (verts + verts)[:max(2, min(8, len(verts) + 2))]
    return ConstraintSet(verts)


def _claim(rng, tree, constant: bool) -> Claim:
    at = (StoppingTime.at_horizon(tree) if rng.random() < 0.5
          else random_stopping_time(tree, rng))
    c = float(rng.uniform(-1.0, 1.0))
    return Claim(at, {b: c if constant else float(rng.uniform(-1.0, 2.0))
                      for b in at.cut})


def _instances(n: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    for i in range(n):
        tree = _tree(rng, i)
        d = 1 + i % 3
        kind = HEDGE_KINDS[(i // 3) % len(HEDGE_KINDS)]
        yield (tree, _assets(rng, tree, d), _hedge(rng, kind, d),
               _claim(rng, tree, constant=i % 7 == 0), kind)


def test_matches_node_lp_on_random_instances():
    seen = {kind: 0 for kind in HEDGE_KINDS}
    cut_inside = constant = 0
    for tree, assets, h_set, x, kind in _instances(330):
        got = constrained_price(tree, assets, h_set, x).values[tree.root]
        want = constrained_price_lp(tree, assets, h_set, x).values[tree.root]
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (kind, got, want)
        seen[kind] += 1
        cut_inside += x.at.cut != StoppingTime.at_horizon(tree).cut
        constant += len(set(x.values.values())) == 1
    assert min(seen.values()) >= 60 and cut_inside >= 60 and constant >= 40


def test_flat_market_prices_a_constant_claim_at_its_constant():
    # every drift 0 and a constant claim: all entries of every game are
    # equal, so every kernel ties and every larger kernel is singular
    for tree, assets, h_set, x, _ in _instances(60, seed=3):
        flat = [AssetProcess(a.name, dict.fromkeys(a.values, 1.5)) for a in assets]
        c = next(iter(x.values.values()))
        got = constrained_price(tree, flat, h_set, Claim.constant(x.at, c))
        assert abs(got.values[tree.root] - c) <= 1e-15


def test_game_bounds_meet_at_the_value():
    # rows minimize, columns maximize: matching pennies is worth 0 with
    # (1/2, 1/2) on both sides, so neither side alone finds the value
    pay = np.array([[[1.0, -1.0], [-1.0, 1.0]],
                    [[3.0, 1.0], [0.0, 2.0]]])
    lower, upper = _game_bounds(pay, 2, DEFAULT)
    np.testing.assert_allclose(lower, [0.0, 1.5], atol=1e-15)
    np.testing.assert_allclose(upper, [0.0, 1.5], atol=1e-15)
    lower, upper = _game_bounds(pay, 1, DEFAULT)
    assert np.all(lower < [0.0, 1.5]) and np.all(upper > [0.0, 1.5])


def _same(got, want) -> bool:
    """Equal arrays to the bit: -0.0 and 0.0 differ, NaN matches NaN."""
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("seed", range(6))
def test_pure_strategies_read_off_the_matrix_give_the_enumeration_bit_for_bit(seed):
    # entries from a small grid (ties, singular kernels), signed zeros,
    # infinities and NaN, in stacks of every shape up to 4 x 4
    rng = np.random.default_rng(seed)
    grid = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    for m in range(1, 5):
        for k in range(1, 5):
            pay = rng.choice(grid, (7, m, k)) * rng.choice([1.0, 1.0, 1.0, np.pi], (7, m, k))
            pay[1] = -0.0
            pay[2, 0, 0] = np.nan
            pay[3, -1, -1] = np.inf
            pay[4, 0, -1] = -np.inf
            pay[5] = rng.normal(size=(m, k))
            for size in range(1, min(m, k) + 1):
                with np.errstate(invalid="ignore"):
                    want = game_bounds_enumerated(pay, size, DEFAULT)
                    got = _game_bounds(pay, size, DEFAULT)
                assert _same(got, want), (seed, m, k, size)
                assert np.isnan(got[0][2]) and np.isnan(got[1][2])


def test_constrained_prices_are_those_of_the_enumeration_bit_for_bit(monkeypatch):
    def price(tree, assets, h_set, x):
        try:
            return constrained_price(tree, assets, h_set, x).array.tobytes()
        except TcppError as exc:
            return type(exc).__name__, str(exc)

    for tree, assets, h_set, x, kind in _instances(150, seed=5):
        got = price(tree, assets, h_set, x)
        with monkeypatch.context() as m:
            m.setattr(tcpp.market, "_game_bounds", game_bounds_enumerated)
            want = price(tree, assets, h_set, x)
        assert got == want, kind
    tree = FiltrationTree.binomial(1)
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5})
    x = Claim(StoppingTime.at_horizon(tree), {1: float("nan"), 2: 0.0})
    band = ConstraintSet([(-1.0,), (1.0,)])
    got = price(tree, [s], band, x)
    with monkeypatch.context() as m:
        m.setattr(tcpp.market, "_game_bounds", game_bounds_enumerated)
        assert price(tree, [s], band, x) == got


def test_kernel_cap_raises_enumeration_overflow():
    tree = FiltrationTree.binomial(2)
    s = AssetProcess("S", {v: 1.0 + 0.1 * v for v in range(tree.n_nodes)})
    x = Claim.constant(StoppingTime.at_horizon(tree), 1.0)
    band = ConstraintSet([(-1.0,), (1.0,)])
    with pytest.raises(EnumerationOverflow, match="exceed"):
        constrained_price(tree, [s], band, x, Settings(max_enum=4))
    got = constrained_price(tree, [s], band, x, Settings(max_enum=5)).values[0]
    assert abs(got - constrained_price_lp(tree, [s], band, x).values[0]) <= 1e-12


def test_non_finite_inputs_are_typed_errors():
    tree = FiltrationTree.binomial(1)
    with pytest.raises(TcppError, match="finite"):
        AssetProcess("S", {0: 1.0, 1: float("nan"), 2: 0.5})
    with pytest.raises(TcppError, match="finite"):
        ConstraintSet([(0.0,), (float("inf"),)])
    s = AssetProcess("S", {0: 1.0, 1: 2.0, 2: 0.5})
    x = Claim(StoppingTime.at_horizon(tree), {1: float("nan"), 2: 0.0})
    with pytest.raises(NumericalBreakdown, match="node 0"):
        constrained_price(tree, [s], ConstraintSet([(-1.0,), (1.0,)]), x)
