"""Numeric settings shared by every solver and check in the package."""
from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import TcppError


@dataclass(frozen=True)
class Settings:
    """One record of tolerances and caps, threaded to all callers; each is
    finite and nonnegative, or the record raises naming it.

    feasibility_tol   constraint satisfaction / pass-fail tolerance, also for
                      the one-step kernels of the martingale, calibrated and
                      good-deal bounds (sign, martingale rows and cap)
    rank_tol          pivot magnitude below which a tableau entry is treated as zero,
                      and |det| over the product of row norms below which a
                      game kernel of constrained pricing counts as singular
    duality_tol       allowed primal-dual objective gap on optimal solves
    equivalence_floor strict-positivity margin below which a measure is not
                      accepted as equivalent; the no-free-lunch searches and
                      the martingale bounds apply it per edge, to each
                      one-step weight, so that leaf masses on deep trees
                      (products of many edge weights) may fall below it;
                      calibration applies it per edge to the martingale
                      kernels before its search, and then to every leaf
                      density dQ/dP of the measure it returns; a projection
                      whose least density is at or below it goes to a
                      leaf-mass LP, which applies it to the largest least
                      density
    max_enum          cap on the game kernels tried per node in constrained
                      pricing, on the kernel supports tried per node by the
                      martingale, calibrated and good-deal bounds (without
                      caps, the martingale and calibrated bounds and
                      calibration's edge test read the vertex kernels among
                      them from one table per market, 4 * (assets + 1) + 1
                      numbers each, held whole, so their memory grows with
                      the internal nodes times the vertices per node, at
                      most this cap; calibration goes to a leaf-mass LP
                      where they exceed it), on the
                      menu-entry supports (at most arity entries each)
                      tried per node by the minimal penalty, and on the
                      reference enumerators of selections and stopping times
    """

    feasibility_tol: float = 1e-9
    rank_tol: float = 1e-12
    duality_tol: float = 1e-7
    equivalence_floor: float = 1e-12
    max_enum: int = 10**6

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= (value := getattr(self, f.name)) < float("inf"):
                raise TcppError(f"setting {f.name} must be finite and at least 0, got {value!r}")


DEFAULT = Settings()
