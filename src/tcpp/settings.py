"""Numeric settings shared by every solver and check in the package."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """One record of tolerances and caps, threaded to all callers.

    feasibility_tol   constraint satisfaction / pass-fail tolerance
    rank_tol          pivot magnitude below which a tableau entry is treated as zero,
                      and |det| over the product of row norms below which a
                      game kernel of constrained pricing counts as singular
    duality_tol       allowed primal-dual objective gap on optimal solves
    equivalence_floor strict-positivity margin below which a measure is not
                      accepted as equivalent; the no-free-lunch searches apply
                      it per edge, to each one-step weight, so that leaf
                      masses on deep trees (products of many edge weights)
                      may fall below it
    cut_tol           quadratic-constraint violation at which cutting planes stop
    max_enum          cap on enumerated scenario selections / stopping times,
                      and on the game kernels tried per node in constrained
                      pricing
    max_cut_rounds    cap on cutting-plane iterations
    verify_lp         run feasibility + duality checks on every optimal solve
    """

    feasibility_tol: float = 1e-9
    rank_tol: float = 1e-12
    duality_tol: float = 1e-7
    equivalence_floor: float = 1e-12
    cut_tol: float = 1e-8
    max_enum: int = 10**6
    max_cut_rounds: int = 2000
    verify_lp: bool = True


DEFAULT = Settings()
