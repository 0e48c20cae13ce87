"""Exception types raised across the package."""


class TcppError(Exception):
    """Base class for all package errors."""


class MalformedProgram(TcppError):
    """Linear program with inconsistent dimensions or invalid bounds."""


class NumericalBreakdown(TcppError):
    """No acceptable pivot remains; the caller must rescale the problem."""


class ForeignNode(TcppError):
    """A stopping time or claim references a node id not in the tree."""


class MassMismatch(TcppError):
    """Pasting measures where the future law is undefined on a charged atom."""


class EnumerationOverflow(TcppError):
    """An enumeration (kernels, supports, selections, stopping times) exceeds the cap."""


class NegativePenalty(TcppError):
    """A menu entry carries a negative penalty where nonnegative ones are required."""


class InconsistentVerdicts(TcppError):
    """The four no-free-lunch characterizations disagree: an implementation bug."""


class NoMartingaleMeasure(TcppError):
    """The martingale-measure polytope is empty."""


class EmptyGoodDealSet(TcppError):
    """Second-moment caps exclude the whole martingale polytope."""


class MarketFileError(TcppError):
    """Malformed market document; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
