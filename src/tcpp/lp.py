"""Dense linear-program solver: two-phase tableau simplex with Bland's rule.

Every optimization in the package funnels through :func:`solve`.  Problem
sizes stay in the low hundreds of variables, so a dense tableau with an
anti-cycling pivot rule beats anything sparse on simplicity.  The final
point and the dual multipliers are recomputed from the original data and
the optimal basis, so tableau drift never leaks into reported values.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EnumerationOverflow, MalformedProgram, NumericalBreakdown
from .scenario import _TABLEAU_CELLS
from .settings import DEFAULT, DUALITY_TOL, RANK_TOL, Settings

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

INF = float("inf")


@dataclass
class LinearProgram:
    """min/max  objective . x  subject to rows (a, rel, b) and variable bounds.

    ``lower``/``upper`` default to x >= 0; use ``-inf``/``inf`` for free
    directions.
    """

    objective: Sequence[float]
    constraints: list[tuple[Sequence[float], str, float]] = field(default_factory=list)
    lower: Sequence[float] | None = None
    upper: Sequence[float] | None = None
    sense: str = "max"

    def dims(self) -> tuple[int, int]:
        return len(self.constraints), len(self.objective)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    value: float | None = None
    point: np.ndarray | None = None
    dual_point: np.ndarray | None = None


def _validate(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c = np.asarray(lp.objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise MalformedProgram("objective must be a nonempty vector")
    n = c.size
    for i, (row, rel, b) in enumerate(lp.constraints):
        if len(row) != n:
            raise MalformedProgram(f"constraint {i} has {len(row)} coefficients, expected {n}")
        if rel not in _RELATIONS:
            raise MalformedProgram(f"constraint {i} has unknown relation {rel!r}")
        if not np.isfinite(b):
            raise MalformedProgram(f"constraint {i} bound is not finite")
    lo = np.full(n, 0.0) if lp.lower is None else np.asarray(lp.lower, dtype=float)
    hi = np.full(n, INF) if lp.upper is None else np.asarray(lp.upper, dtype=float)
    if lo.size != n or hi.size != n:
        raise MalformedProgram("bound vectors must match the objective dimension")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise MalformedProgram("bounds must be numbers or explicit infinities")
    if np.any(lo > hi):
        raise MalformedProgram("some lower bound exceeds its upper bound")
    if lp.sense not in ("min", "max"):
        raise MalformedProgram(f"unknown sense {lp.sense!r}")
    return c, lo, hi


class _Standard:
    """min c.y, A y = b, y >= 0, plus the bookkeeping to map y back to x."""

    def __init__(self, lp: LinearProgram, c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        n = c.size
        sign = 1.0 if lp.sense == "min" else -1.0
        rows = [np.asarray(r, dtype=float) for r, _, _ in lp.constraints]
        m0 = len(rows)
        A_orig = np.vstack(rows) if rows else np.zeros((0, n))
        b_work = np.array([b for _, _, b in lp.constraints], dtype=float)
        rels = [rel for _, rel, _ in lp.constraints]

        cols: list[np.ndarray] = []
        ccol: list[float] = []
        self.recover: list[tuple] = []      # (kind, j, const) per structural column
        upper_rows: list[tuple[int, float]] = []  # (column index, ub) for x <= u rows

        for j in range(n):
            col = A_orig[:, j] if m0 else np.zeros(0)
            if lo[j] == -INF and hi[j] == INF:
                cols.append(col.copy())
                ccol.append(sign * c[j])
                self.recover.append(("free+", j, 0.0))
                cols.append(-col)
                ccol.append(-sign * c[j])
                self.recover.append(("free-", j, 0.0))
            elif lo[j] == -INF:
                # x = u - y
                b_work = b_work - col * hi[j]
                cols.append(-col)
                ccol.append(-sign * c[j])
                self.recover.append(("upper", j, hi[j]))
            else:
                # x = l + y
                if lo[j] != 0.0:
                    b_work = b_work - col * lo[j]
                cols.append(col.copy())
                ccol.append(sign * c[j])
                self.recover.append(("lower", j, lo[j]))
                if hi[j] != INF:
                    upper_rows.append((len(cols) - 1, hi[j] - lo[j]))

        ny = len(cols)
        m = m0 + len(upper_rows)
        A = np.zeros((m, ny))
        if m0 and ny:
            A[:m0, :] = np.column_stack(cols)
        b = np.concatenate([b_work, np.array([ub for _, ub in upper_rows])])
        for i, (jcol, _) in enumerate(upper_rows):
            A[m0 + i, jcol] = 1.0
        rels = rels + [LE] * len(upper_rows)

        slack_cols = []
        slack_of: dict[int, int] = {}
        for i, rel in enumerate(rels):
            if rel == EQ:
                continue
            e = np.zeros(m)
            e[i] = 1.0 if rel == LE else -1.0
            slack_of[i] = ny + len(slack_cols)
            slack_cols.append(e)
        if slack_cols:
            A = np.hstack([A, np.column_stack(slack_cols)])
        self.c = np.concatenate([np.asarray(ccol), np.zeros(len(slack_cols))])

        # equilibrate rows toward unit inf-norm with power-of-two factors
        # (exact in binary floating point) and flip signs so b >= 0; rows
        # with b = 0 flip toward a positive slack so they can start basic
        self.row_scale = np.ones(m)
        for i in range(m):
            norm = float(np.abs(A[i, :]).max(initial=0.0))
            s = 2.0 ** -round(np.log2(norm)) if norm > 0.0 else 1.0
            if b[i] * s < 0:
                s = -s
            elif b[i] == 0.0 and i in slack_of and A[i, slack_of[i]] * s < 0:
                s = -s
            A[i, :] *= s
            b[i] *= s
            self.row_scale[i] = s
        # rows whose (rescaled) slack enters positively start phase 1 basic
        self.slack_basis: dict[int, int] = {
            i: j for i, j in slack_of.items() if A[i, j] > 0.0}
        self.A = A
        self.b = b
        self.n_orig_rows = m0

    def to_point(self, y: np.ndarray, n: int) -> np.ndarray:
        x = np.zeros(n)
        for yj, (kind, j, const) in enumerate(self.recover):
            if kind == "free+":
                x[j] += y[yj]
            elif kind == "free-":
                x[j] -= y[yj]
            elif kind == "lower":
                x[j] = const + y[yj]
            else:
                x[j] = const - y[yj]
        return x


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row, :] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i, :] -= T[i, col] * T[row, :]


def _bland(T: np.ndarray, basis: list[int], settings: Settings, max_iter: int,
           stop_at: float | None = None) -> str:
    """Run simplex pivots in place until optimal/unbounded.

    Entering variables follow Dantzig pricing until the objective stalls,
    then Bland's rule takes over permanently as the anti-cycling guarantee.
    ``stop_at`` ends the run as soon as the objective reaches that value
    (phase 1 stops at zero rather than polishing noise).
    """
    m = T.shape[0] - 1
    tol = settings.feasibility_tol
    bland_mode = False
    stalled = 0
    last_obj = T[-1, -1]
    for _ in range(max_iter):
        if stop_at is not None and -T[-1, -1] <= stop_at:
            return "optimal"
        red = T[-1, :-1]
        if bland_mode:
            enter = -1
            for j in range(red.size):
                if red[j] < -tol:
                    enter = j
                    break
        else:
            enter = int(np.argmin(red))
            if red[enter] >= -tol:
                enter = -1
        if enter < 0:
            return "optimal"
        leave = _ratio_test(T, basis, enter, bland_mode, settings)
        if leave == -2:
            return "unbounded"
        if leave < 0:
            raise NumericalBreakdown("all candidate pivots below rank tolerance")
        _pivot(T, leave, enter)
        basis[leave] = enter
        if not bland_mode:
            # the cost cell carries minus the objective, so progress raises it
            obj = T[-1, -1]
            stalled = stalled + 1 if obj <= last_obj + 1e-13 else 0
            last_obj = obj
            if stalled >= 40:
                bland_mode = True
    raise NumericalBreakdown("simplex iteration limit reached")


def _ratio_test(T: np.ndarray, basis: list[int], enter: int, bland_mode: bool,
                settings: Settings) -> int:
    """Leaving row for the entering column; -2 for unbounded, -1 breakdown.

    Two-pass (Harris-style): the first pass bounds the step by the most
    restrictive row with a small feasibility slack, the second picks the
    largest pivot among rows inside the bound, which keeps every basic
    value above -tol without pivoting on vanishing elements.  Bland mode
    picks the lowest basis index inside the bound instead.
    """
    m = T.shape[0] - 1
    col = T[:m, enter]
    tol = settings.feasibility_tol
    eligible = 1e2 * tol
    candidates = [i for i in range(m) if col[i] > RANK_TOL]
    if not candidates:
        return -2 if not bool(np.any(col > 0)) else -1
    t_max = min((max(T[i, -1], 0.0) + tol) / col[i] for i in candidates)
    leave = -1
    for i in candidates:
        if col[i] <= eligible:
            continue
        if max(T[i, -1], 0.0) / col[i] <= t_max:
            if leave < 0:
                leave = i
            elif bland_mode:
                if basis[i] < basis[leave]:
                    leave = i
            elif col[i] > col[leave]:
                leave = i
    if leave >= 0:
        return leave
    # every safe pivot would push some excluded row past the tolerance;
    # take the largest pivot inside the bound even if it is tiny
    for i in candidates:
        if max(T[i, -1], 0.0) / col[i] <= t_max and (
                leave < 0 or col[i] > col[leave]):
            leave = i
    return leave


def solve(lp: LinearProgram, settings: Settings = DEFAULT) -> LpSolution:
    """Solve a dense LP; status is one of optimal / infeasible / unbounded.

    Raises :class:`EnumerationOverflow` before anything is allocated when
    the dense tableau, counted as (rows + 1) x (columns + rows + 1) cells
    (a slack per row; phase 1 adds a column per row without one), exceeds
    ``scenario._TABLEAU_CELLS``; :class:`MalformedProgram` on dimension
    errors; and :class:`NumericalBreakdown` when no pivot above the rank
    tolerance remains (caller must rescale).
    """
    rows, cols = lp.dims()
    cells = (rows + 1) * (cols + rows + 1)
    if cells > _TABLEAU_CELLS:
        raise EnumerationOverflow(
            f"an LP of {rows} rows and {cols} columns needs a dense tableau of "
            f"{cells * 8 / 2**20:.1f} MiB, above the cap of {_TABLEAU_CELLS * 8 / 2**20:.1f} MiB")
    c_orig, lo, hi = _validate(lp)
    n = c_orig.size
    std = _Standard(lp, c_orig, lo, hi)
    m, ntot = std.A.shape

    if m == 0:
        return _solve_bounds_only(lp, c_orig, lo, hi)

    # phase 1: min sum of artificials; rows with a ready slack start basic
    need_art = [i for i in range(m) if i not in std.slack_basis]
    na = len(need_art)
    T = np.zeros((m + 1, ntot + na + 1))
    T[:m, :ntot] = std.A
    T[:m, -1] = std.b
    basis = [0] * m
    for i, j in std.slack_basis.items():
        T[i, :] /= T[i, j]    # canonicalize the starting basic column
        basis[i] = j
    for k, i in enumerate(need_art):
        T[i, ntot + k] = 1.0
        basis[i] = ntot + k
    T[-1, :ntot] = -T[need_art, :ntot].sum(axis=0)
    T[-1, -1] = -T[need_art, -1].sum()
    bscale = 1.0 + float(np.abs(std.b).max(initial=0.0))
    _bland(T, basis, settings, max_iter=100 * (m + ntot) + 20000,
           stop_at=0.1 * settings.feasibility_tol * bscale)
    if -T[-1, -1] > max(settings.feasibility_tol * bscale, 1e-9 * bscale):
        return LpSolution(status="infeasible")

    # drive leftover artificials out; rows that cannot pivot are redundant
    for i in range(m):
        if basis[i] >= ntot:
            for j in range(ntot):
                if abs(T[i, j]) > RANK_TOL:
                    _pivot(T, i, j)
                    basis[i] = j
                    break
    keep = [i for i in range(m) if basis[i] < ntot]

    # phase 2 tableau over the kept rows
    mk = len(keep)
    T2 = np.zeros((mk + 1, ntot + 1))
    for r, i in enumerate(keep):
        T2[r, :ntot] = T[i, :ntot]
        T2[r, -1] = T[i, -1]
    basis2 = [basis[i] for i in keep]
    T2[-1, :ntot] = std.c
    for r, bj in enumerate(basis2):
        if T2[-1, bj] != 0.0:
            T2[-1, :] -= T2[-1, bj] * T2[r, :]
    status = _bland(T2, basis2, settings, max_iter=50 * (mk + ntot) + 20000)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    # recompute point and duals from original data and the final basis,
    # with iterative refinement to squeeze out the last rounding errors
    y = np.zeros(ntot)
    cols = np.array(sorted(set(basis2)), dtype=int)
    B = std.A[:, cols]
    square = B.shape[0] == B.shape[1]

    def basic_solve(rhs: np.ndarray) -> np.ndarray:
        if square:
            try:
                return np.linalg.solve(B, rhs)
            except np.linalg.LinAlgError:
                pass
        return np.linalg.lstsq(B, rhs, rcond=None)[0]

    vals = basic_solve(std.b)
    for _ in range(2):
        residual = std.b - B @ vals
        if not residual.any():
            break
        vals = vals + basic_solve(residual)
    y[cols] = vals

    def badness(cand: np.ndarray) -> float:
        resid = float(np.abs(std.A @ cand - std.b).max(initial=0.0))
        return max(resid, -float(cand.min(initial=0.0)))

    y_tab = np.zeros(ntot)
    for r, bj in enumerate(basis2):
        y_tab[bj] = T2[r, -1]
    if badness(y_tab) < badness(y):
        y = y_tab  # refinement went singular; the tableau did better
    y = np.maximum(np.where(np.abs(y) < 1e-14, 0.0, y), 0.0)

    x = std.to_point(y, n)
    value = float(c_orig @ x)

    pi, *_ = np.linalg.lstsq(std.A[:, cols].T, std.c[cols], rcond=None)
    duals = std.row_scale[: std.n_orig_rows] * pi[: std.n_orig_rows]
    if lp.sense == "max":
        duals = -duals

    out = LpSolution(status="optimal", value=value, point=x, dual_point=duals)
    _verify(lp, out, std, y, pi, settings)
    return out


def _solve_bounds_only(lp: LinearProgram, c: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray) -> LpSolution:
    sign = 1.0 if lp.sense == "min" else -1.0
    x = np.zeros(c.size)
    for j in range(c.size):
        cj = sign * c[j]
        if cj > 0:
            v = lo[j]
        elif cj < 0:
            v = hi[j]
        else:
            v = min(max(0.0, lo[j]), hi[j])
        if not np.isfinite(v):
            return LpSolution(status="unbounded")
        x[j] = v
    return LpSolution(status="optimal", value=float(c @ x), point=x,
                      dual_point=np.zeros(0))


def _verify(lp: LinearProgram, sol: LpSolution, std: _Standard, y: np.ndarray,
            pi: np.ndarray, settings: Settings) -> None:
    gap = feasibility_error(lp, sol.point)
    scale = 1.0 + abs(sol.value) + float(np.abs(std.b).max(initial=0.0))
    if gap > settings.feasibility_tol * scale:
        raise NumericalBreakdown(f"optimal point violates a constraint by {gap:.3e}")
    primal = float(std.c @ y)
    dual = float(std.b @ pi)
    if abs(primal - dual) > DUALITY_TOL * (1.0 + abs(primal)):
        raise NumericalBreakdown(
            f"strong duality gap {abs(primal - dual):.3e} exceeds tolerance")
    rc = std.c - std.A.T @ pi
    comp = float(np.abs(y * rc).max(initial=0.0))
    if comp > 10 * DUALITY_TOL * (1.0 + abs(primal)):
        raise NumericalBreakdown(f"complementary slackness violated by {comp:.3e}")


def feasibility_error(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of constraints and bounds at x."""
    _, lo, hi = _validate(lp)
    worst = 0.0
    for row, rel, b in lp.constraints:
        v = float(np.dot(row, x))
        if rel == LE:
            worst = max(worst, v - b)
        elif rel == GE:
            worst = max(worst, b - v)
        else:
            worst = max(worst, abs(v - b))
    with np.errstate(invalid="ignore"):
        lo_gap = np.where(np.isfinite(lo), lo - x, 0.0)
        hi_gap = np.where(np.isfinite(hi), x - hi, 0.0)
    worst = max(worst, float(np.max(lo_gap, initial=0.0)))
    worst = max(worst, float(np.max(hi_gap, initial=0.0)))
    return worst
