"""Exception hierarchy.

Everything raised on purpose by this package derives from SentinelError, so callers
(the CLI in particular) can map failure classes to exit codes without string matching.
"""


class SentinelError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InvalidSpecError(SentinelError, ValueError):
    """A model spec, grid, or config is malformed or out of domain."""


class GraphParseError(SentinelError, ValueError):
    """An edge-list file violates the format. Carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class SelfLoopError(SentinelError, ValueError):
    """An edge (i, i) was supplied; the graph model has no self loops."""


class DomainError(SentinelError, ValueError):
    """A numeric argument is outside the mathematical domain of a kernel."""


class DegenerateGraphError(SentinelError, ValueError):
    """A statistic is undefined on this graph (no edges, complete graph, ...)."""


class BudgetExceededError(SentinelError, RuntimeError):
    """An enumeration budget would be exceeded; the exact mode refuses to start."""


class TimeBudgetExceededError(SentinelError, RuntimeError):
    """A time budget ran out mid-search. Carries the best (lower, upper) bound pair."""

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class InsufficientReplicatesError(SentinelError, ValueError):
    """Too few calibration replicates for the requested level."""


class MismatchedNullSpecError(SentinelError, ValueError):
    """Component tests of a combination were calibrated against different nulls."""


class InvalidSpecPairError(InvalidSpecError):
    """A (null, alternative) spec pair is inconsistent (sizes, variants)."""
