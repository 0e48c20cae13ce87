"""The slice systems of every support search (the vertex table, the capped
good-deal search and the minimal penalty's conjugate), solved by one
batched Gram-Schmidt over their rows, against the pseudo-inverse they
replaced, on seeded stacks with degenerate members: two children with
equal moves, children that do not move the assets, a zero reference
weight and assets whose moves are proportional."""
import itertools
import os
import warnings

import numpy as np
import pytest

from oracles import slice_systems_pinv
from tcpp.cli import main
from tcpp.scenario import _batch_max, _on_slice, _slice_systems, _slices, _Slices
from tcpp.settings import DEFAULT, pinned

# (rows, support): rows = assets + 1
SHAPES = [(2, 1), (2, 2), (2, 3), (3, 2), (4, 4), (4, 6)]
SEEDS = range(6)

EQUAL_MOVES = os.path.join(os.path.dirname(__file__), "markets", "equal_moves")
# the machine output of each command on equal_moves.market as the
# pseudo-inverse solve printed it
PINV_OUTPUT = {
    "mme": {"lower": 0.2222222222222221, "upper": 0.4444444444444443, "equivalent": "true"},
    "calibrated": {"lower": 0.22222222222222213, "upper": 0.44444444444444436},
    "good-deal": {"lower": 0.25963056021432424, "upper": 0.4444444444444443},
    "good-deal --good-deal-cap 1.2": {"lower": 0.25963056021432424,
                                      "upper": 0.4444444444444443},
    "good-deal --good-deal-cap inf": {"lower": 0.2222222222222221,
                                      "upper": 0.4444444444444443},
    "calibrate": {"calibration": "feasible", "density.4": 0.37037037037037013,
                  "density.5": 1.1111111111111103, "density.6": 0.37037037037036996,
                  "density.7": 0.9053497942386823, "density.8": 0.5761316872427982,
                  "density.9": 0.9053497942386823, "density.10": 1.3888888888888888,
                  "density.11": 0.6944444444444442, "density.12": 2.7777777777777755},
}


def _stack(rows: int, size: int, seed: int):
    """sqrt(p) and the moves of 12 nodes of size + 2 children each, nodes
    1-5 degenerate, and the supports of ``size`` of them."""
    rng = np.random.default_rng([seed, rows, size])
    k = size + 2
    root_p = np.sqrt(rng.dirichlet(np.ones(k), 12))
    drift = rng.normal(size=(12, k, rows - 1))
    drift[1] = 0.0                          # no child moves the assets
    root_p[2, 0] = 0.0                      # a zero reference weight
    drift[3, 1] = drift[3, 0]               # two children with equal moves
    drift[4, :2] = 0.0                      # two children that do not move
    drift[5, :, -1] = 2.0 * drift[5, :, 0]  # proportional moves (one asset: equal rows)
    sup = np.array(list(itertools.combinations(range(k), size)))
    return root_p, drift, sup


def _oracle(root_p, drift, sup) -> _Slices:
    rp = root_p[:, sup]
    a, proj, y0 = slice_systems_pinv(rp, drift[:, sup])
    return _Slices(sup, rp, a, proj, y0, (y0 ** 2).sum(-1), 1.0 + np.abs(a).max((-2, -1)))


@pytest.mark.parametrize("rows,size", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_projections_and_least_norm_points_are_those_of_the_pseudo_inverse(rows, size, seed):
    root_p, drift, sup = _stack(rows, size, seed)
    sl, ref = _slices(root_p, drift, sup, True), _oracle(root_p, drift, sup)
    assert np.array_equal(sl.a, ref.a) and np.array_equal(sl.rp, ref.rp)
    assert np.array_equal(sl.scale, ref.scale)
    np.testing.assert_allclose(sl.proj, ref.proj, rtol=0, atol=1e-11)
    # y0, relative to its norm, wherever the system is consistent and its
    # nonzero singular values are within 100 of each other: rank-deficient
    # systems among them
    sv = np.linalg.svd(ref.a, compute_uv=False)
    kept = sv > 1e-10 * sv[..., :1]
    cond = sv[..., 0] / np.where(kept, sv, np.inf).min(-1)
    res = np.abs(np.einsum("gcrs,gcs->gcr", ref.a, ref.y0) - np.eye(rows)[0]).max(-1)
    fine = (res <= 1e-12) & (cond <= 1e2)
    assert fine.any() and (size == 1 or (kept.sum(-1)[fine] < min(rows, size)).any())
    err = np.linalg.norm(sl.y0 - ref.y0, axis=-1)
    assert (err[fine] <= 1e-12 * np.sqrt(ref.norm[fine])).all()
    # the vertex table's candidates: the least-norm points themselves
    settings = pinned(DEFAULT)
    on = _on_slice(sl, sl.y0[None], settings)
    assert np.array_equal(on, _on_slice(ref, ref.y0[None], settings))
    assert on.any() and not on.all()


@pytest.mark.parametrize("rows,size", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_capped_candidates_keep_the_pseudo_inverse_verdicts(rows, size, seed):
    root_p, drift, sup = _stack(rows, size, seed)
    sl, ref = _slices(root_p, drift, sup, True), _oracle(root_p, drift, sup)
    rng = np.random.default_rng([seed, rows, size, 1])
    g, k = root_p.shape
    v = rng.normal(size=(3, g, k))
    v[2, :, 1] = -np.inf                    # a child that must not be charged
    live, w = ~np.isinf(v), root_p * np.where(np.isinf(v), 0.0, v)
    settings = pinned(DEFAULT)
    for cap in (1.0, 1.2, 3.0, np.inf):
        cap2 = np.full(g, cap) ** 2
        got, want = (_batch_max(s, w, live, cap2, settings) for s in (sl, ref))
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        np.testing.assert_allclose(got[np.isfinite(got)], want[np.isfinite(want)],
                                   rtol=1e-10, atol=1e-12)


def test_dropped_rows_warn_of_nothing_and_leave_a_zero_basis_row():
    # supports of two children with equal moves (the second row repeats the
    # first), with zero weights, and with zero moves
    rp = np.array([[[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]]])
    drift = np.zeros((1, 3, 2, 2))
    drift[0, 0, :, 0] = drift[0, 1] = 1.0
    with np.errstate(all="raise"):
        a, q, y0 = _slice_systems(rp, drift)
    np.testing.assert_allclose(q[0, 0, [0, 2]], np.full((2, 2), 0.5 ** 0.5))
    assert not q[1:, 0, [0, 2]].any() and not q[:, 0, 1].any() and not y0[0, 1].any()
    np.testing.assert_allclose(y0[0, [0, 2]], np.ones((2, 2)))


@pytest.mark.parametrize("command", sorted(PINV_OUTPUT))
def test_equal_moves_market_prints_the_pseudo_inverse_values(command, capsys):
    # nodes with two children of one asset value, a child that does not move
    # it and children that all keep it: rank-deficient slice systems on the
    # vertex table's, the capped search's and calibration's paths
    argv = (["calibrate", "--market", EQUAL_MOVES + ".market"] if command == "calibrate" else
            ["bounds", "--market", EQUAL_MOVES + ".market", "--claim", EQUAL_MOVES + ".claim",
             "--kind", *command.split()])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--format", "machine"]) == 0
    got = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    want = PINV_OUTPUT[command]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, str):
            assert got[key] == value
        else:
            assert float(got[key]) == pytest.approx(value, rel=1e-11, abs=0), key
