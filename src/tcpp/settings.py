"""Numeric settings shared by every solver and check in the package."""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import TcppError

RANK_TOL = 1e-12    # pivots, projections and scaled determinants below it count as zero
DUALITY_TOL = 1e-7  # largest primal-dual objective gap of an optimal LP solve


@dataclass(frozen=True)
class Settings:
    """One record of tolerances and caps, threaded to all callers; each is
    finite and nonnegative, or the record raises naming it.

    feasibility_tol   pass-fail tolerance of every verdict (the checks, the
                      no-free-lunch searches, calibration's quote bands); a
                      function that returns a number reads ``pinned``
    equivalence_floor strict-positivity margin below which a measure is not
                      accepted as equivalent; the no-free-lunch searches and
                      the martingale bounds apply it per edge, to each
                      one-step weight, so that leaf masses on deep trees
                      (products of many edge weights) may fall below it;
                      calibration applies it per edge to the martingale
                      kernels (its edge test), then to the least leaf
                      density dQ/dP of R, the product of the mean vertex
                      kernels, and of the column generation's mixture of R
                      and extreme martingale measures, which gives the
                      verdict where R is not returned
    max_enum          cap on the game kernels tried per node in constrained
                      pricing, on the kernel supports tried per node by the
                      martingale, calibrated and good-deal bounds and by
                      calibration (without caps, the martingale and
                      calibrated bounds and calibration read the vertex
                      kernels among them from one table per market,
                      4 * (assets + 1) + 1 numbers each, held whole, so
                      their memory grows with the internal nodes times the
                      vertices per node, at most this cap), on the
                      menu-entry supports (at most arity entries each)
                      tried per node by the minimal penalty, and on the
                      reference enumerators of selections and stopping times
    """

    feasibility_tol: float = 1e-9
    equivalence_floor: float = 1e-12
    max_enum: int = 10**6

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= (value := getattr(self, f.name)) < float("inf"):
                raise TcppError(f"setting {f.name} must be finite and at least 0, got {value!r}")


DEFAULT = Settings()


def pinned(settings: Settings) -> Settings:
    """``settings`` with ``feasibility_tol`` no looser than the default's:
    what a function that returns a number computes at, once at its entry,
    so that all it calls (kernel searches, vertex tables, master LPs, gap
    checks) sees one tolerance.  Kernels that miss their rows by a loose
    tolerance add up along the paths of a measure, and an LP pivoted to
    one checks to ``DUALITY_TOL`` all the same.  At the default or a
    tighter tolerance it returns ``settings`` unchanged."""
    if settings.feasibility_tol <= DEFAULT.feasibility_tol:
        return settings
    return replace(settings, feasibility_tol=DEFAULT.feasibility_tol)
