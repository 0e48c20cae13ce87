"""Solver tests: hand-checked examples, duality, and a vertex-enumeration oracle."""
import itertools
import re
from unittest import mock

import numpy as np
import pytest

import tcpp.lp
from tcpp.errors import EnumerationOverflow, MalformedProgram
from tcpp.lp import EQ, GE, LE, LinearProgram, feasibility_error, solve

INF = float("inf")


def test_single_variable_bound():
    sol = solve(LinearProgram([1.0], [([1.0], LE, 1.0)], sense="max"))
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) <= 1e-9


def test_simplex_face():
    sol = solve(LinearProgram([1.0, 1.0], [([1.0, 1.0], LE, 1.0)], sense="max"))
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) <= 1e-9


def test_contradictory_bounds_infeasible():
    sol = solve(LinearProgram([1.0], [([1.0], GE, 1.0), ([1.0], LE, 0.0)], sense="max"))
    assert sol.status == "infeasible"


def test_trinomial_mme_polytope():
    # maximize q_u over {2q_u + q_m + 0.5 q_d = 1, sum q = 1, q >= 0}.
    # Eliminating by hand: q_u = q_d / 2 and q_m = 1 - 3 q_u >= 0, so 1/3.
    lp = LinearProgram([1.0, 0.0, 0.0],
                       [([2.0, 1.0, 0.5], EQ, 1.0), ([1.0, 1.0, 1.0], EQ, 1.0)],
                       sense="max")
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0 / 3.0) <= 1e-9
    assert feasibility_error(lp, sol.point) <= 1e-9


def test_unbounded():
    sol = solve(LinearProgram([1.0], [([0.0], LE, 1.0)], sense="max"))
    assert sol.status == "unbounded"


def test_free_variable_and_negative_bounds():
    # min t s.t. t >= -3, t >= x - 5, x = 2
    lp = LinearProgram([0.0, 1.0],
                       [([0.0, 1.0], GE, -3.0), ([-1.0, 1.0], GE, -5.0),
                        ([1.0, 0.0], EQ, 2.0)],
                       lower=[0.0, -INF], sense="min")
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.value + 3.0) <= 1e-9


def test_upper_bounds():
    lp = LinearProgram([1.0, 2.0], [([1.0, 1.0], LE, 10.0)],
                       lower=[0.0, 0.0], upper=[3.0, 4.0], sense="max")
    sol = solve(lp)
    assert abs(sol.value - 11.0) <= 1e-9
    assert np.allclose(sol.point, [3.0, 4.0], atol=1e-9)


def test_malformed_dimension():
    with pytest.raises(MalformedProgram):
        solve(LinearProgram([1.0, 2.0], [([1.0], LE, 1.0)]))


def test_malformed_bound():
    with pytest.raises(MalformedProgram):
        solve(LinearProgram([1.0], [([1.0], LE, float("nan"))]))


def test_row_permutation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.2, 1.0, size=n)
        b = a @ x0 + rng.uniform(0.1, 1.0, size=m)   # x0 strictly feasible
        c = rng.normal(size=n)
        rows = [(list(a[i]), LE, float(b[i])) for i in range(m)]
        base = solve(LinearProgram(list(c), rows, sense="max"))
        if base.status != "optimal":
            continue
        perm = list(rng.permutation(m))
        permuted = solve(LinearProgram(list(c), [rows[i] for i in perm], sense="max"))
        assert permuted.status == "optimal"
        assert abs(base.value - permuted.value) <= 1e-9 * (1 + abs(base.value))


def _oracle_max(c, rows, n):
    """Enumerate basic points of {A x <= b, x >= 0}: all n-subsets of the
    row system including nonnegativity facets."""
    a_full = [np.asarray(r) for r, _, _ in rows] + [np.eye(n)[i] for i in range(n)]
    b_full = [b for _, _, b in rows] + [0.0] * n
    best = None
    for subset in itertools.combinations(range(len(a_full)), n):
        a = np.array([a_full[i] for i in subset])
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, np.array([b_full[i] for i in subset]))
        if np.any(x < -1e-9):
            continue
        if all(np.dot(r, x) <= b + 1e-9 for r, _, b in rows):
            v = float(np.dot(c, x))
            best = v if best is None else max(best, v)
    return best


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(40):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        a = rng.normal(size=(m, n))
        b = np.abs(rng.normal(size=m)) + 0.5   # 0 is strictly feasible
        c = rng.normal(size=n)
        rows = [(list(a[i]), LE, float(b[i])) for i in range(m)]
        sol = solve(LinearProgram(list(c), rows, sense="max"))
        oracle = _oracle_max(c, rows, n)
        if sol.status == "unbounded":
            continue
        assert sol.status == "optimal"
        assert oracle is not None
        assert abs(sol.value - oracle) <= 1e-8 * (1 + abs(oracle))
        checked += 1
    assert checked >= 10


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.normal(size=(m, n))
        b = np.abs(rng.normal(size=m)) + 0.5
        c = rng.normal(size=n)
        rows = [(list(a[i]), LE, float(b[i])) for i in range(m)]
        sol = solve(LinearProgram(list(c), rows, sense="max"))
        if sol.status != "optimal":
            continue
        y = sol.dual_point
        # max problem with <= rows and x >= 0: duals nonnegative,
        # dual objective b.y equals the optimum, slack complementarity holds
        assert np.all(y >= -1e-7)
        assert abs(float(np.dot(b, y)) - sol.value) <= 1e-7 * (1 + abs(sol.value))
        slack = b - a @ sol.point
        assert float(np.abs(y * slack).max()) <= 1e-6
        reduced = c - a.T @ y
        assert float(np.abs(reduced * sol.point).max()) <= 1e-6


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    lp = LinearProgram(
        [0.75, -150.0, 0.02, -6.0],
        [([0.25, -60.0, -0.04, 9.0], LE, 0.0),
         ([0.5, -90.0, -0.02, 3.0], LE, 0.0),
         ([0.0, 0.0, 1.0, 0.0], LE, 1.0)],
        sense="max")
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.value - 0.05) <= 1e-9


def test_equality_rows_with_redundancy():
    lp = LinearProgram([1.0, 1.0],
                       [([1.0, 1.0], EQ, 1.0), ([2.0, 2.0], EQ, 2.0)],
                       sense="max")
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.value - 1.0) <= 1e-9


def test_moderately_conditioned_problem():
    # diagonal scaling over eight orders of magnitude; optimum known exactly
    scales = 10.0 ** np.arange(0, 8)
    n = scales.size
    rows = [([scales[i] if j == i else 0.0 for j in range(n)], LE, float(scales[i]))
            for i in range(n)]
    sol = solve(LinearProgram([1.0] * n, rows, sense="max"))
    assert sol.status == "optimal"
    assert abs(sol.value - n) <= 1e-9 * n


def test_numerical_breakdown_on_vanishing_pivot():
    from tcpp.errors import NumericalBreakdown
    lp = LinearProgram([1.0], [([1e-13], LE, 1.0)], sense="max")
    with pytest.raises(NumericalBreakdown):
        solve(lp)


def test_an_lp_beyond_the_tableau_cap_raises_before_it_is_built(monkeypatch):
    # 124 rows over 82 columns: (124 + 1) x (82 + 124 + 1) = 25875 cells
    lp = LinearProgram([1.0] * 82, [([1.0] * 82, LE, 1.0)] * 124, sense="max")
    monkeypatch.setattr(tcpp.lp, "_Standard", mock.Mock(side_effect=AssertionError("built")))
    monkeypatch.setattr(tcpp.lp, "_TABLEAU_CELLS", 25874)
    message = ("an LP of 124 rows and 82 columns needs a dense tableau of 0.2 MiB, "
               "above the cap of 0.2 MiB")
    with pytest.raises(EnumerationOverflow, match=f"^{re.escape(message)}$"):
        solve(lp)
    monkeypatch.setattr(tcpp.lp, "_TABLEAU_CELLS", 25875)
    with pytest.raises(AssertionError, match="built"):
        solve(lp)


# -- cut-round LPs that solve gets wrong (ROADMAP item 6) -----------------------
# Both come from the good-deal cutting-plane loop of tests/oracles.py on
# trinomial H=4, asset factors 2, 1, 0.5, uniform P, a call struck at 1.

def _cut_loop_lps(cap: float, max_cut_rounds: int) -> list:
    """Every LP the lower-bound loop hands to ``solve`` at this uniform cap,
    the one it fails on included."""
    import oracles
    from tcpp.errors import TcppError
    from tcpp.market import AssetProcess, GoodDealCaps
    from tcpp.tree import Claim, FiltrationTree, StoppingTime

    tree = FiltrationTree.trinomial(4)
    s = {tree.root: 1.0}
    for v in tree.internal_nodes():
        for c, f in zip(tree.children[v], (2.0, 1.0, 0.5)):
            s[c] = s[v] * f
    call = Claim(StoppingTime.at_horizon(tree), {b: max(s[b] - 1.0, 0.0) for b in tree.leaves})
    lps = []

    def recording(lp, settings):
        lps.append(lp)
        return solve(lp, settings)

    oracles.solve = recording
    try:
        oracles.good_deal_bounds_cuts(tree, [AssetProcess("S", s)], GoodDealCaps.uniform(cap),
                                      call, max_cut_rounds=max_cut_rounds)
    except TcppError:       # EmptyGoodDealSet or NumericalBreakdown, from the bad solve
        pass
    finally:
        oracles.solve = solve
    return lps


@pytest.fixture(scope="module")
def infeasible_cut_round():
    """The first LP that ``solve`` calls infeasible, at every cap 1.05:
    round 9 of the lower bound; and a feasible point of it."""
    from oracles import forward_mass
    from tcpp.tree import FiltrationTree

    lp = _cut_loop_lps(1.05, 9)[8]
    # leaf masses of the product measure with kernel (3/14, 5/14, 6/14) at
    # every node: a martingale kernel of second moment 15/14 < 1.05^2
    tree = FiltrationTree.trinomial(4)
    mass = forward_mass(tree, tree.root, frozenset(tree.leaves),
                        lambda v: (3 / 14, 5 / 14, 6 / 14))
    return lp, np.array([mass[b] for b in tree.leaves])


@pytest.fixture(scope="module")
def off_point_cut_round():
    """The first LP whose "optimal" point ``solve`` rejects, at every cap
    1.1: the lower bound's LP after six rounds of cuts."""
    return _cut_loop_lps(1.1, 2000)[-1]


def test_infeasible_cut_round_has_a_feasible_point(infeasible_cut_round):
    lp, mu = infeasible_cut_round
    assert lp.dims() == (268, 81)
    assert np.all(mu >= 0.0)
    for row, rel, rhs in lp.constraints:
        lhs = float(np.dot(row, mu))
        if rel == EQ:
            assert abs(lhs - rhs) <= 1e-12
        elif rel == LE:
            assert lhs <= rhs + 1e-12
        else:
            assert lhs >= rhs - 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: solve reports a feasible "
                   "cut-round LP infeasible")
def test_feasible_cut_round_solves(infeasible_cut_round):
    lp, _ = infeasible_cut_round
    assert solve(lp).status == "optimal"


def test_off_point_cut_round_is_the_one_verify_rejects(off_point_cut_round):
    from tcpp.errors import NumericalBreakdown
    assert off_point_cut_round.dims() == (200, 81)
    with pytest.raises(NumericalBreakdown, match="violates a constraint by 3.37"):
        solve(off_point_cut_round)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: solve's optimal point of a "
                   "cut-round LP violates a row by 3.4e-6")
def test_off_point_cut_round_solves(off_point_cut_round):
    assert solve(off_point_cut_round).status == "optimal"
