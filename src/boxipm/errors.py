"""Exception hierarchy for boxipm.

Every error raised deliberately by this package derives from
:class:`BoxIpmError`, so callers (and the CLI) can distinguish solver
failures from genuine bugs.
"""


class BoxIpmError(Exception):
    """Base class for all boxipm errors."""


class InvalidProblem(BoxIpmError):
    """Problem data rejected (asymmetry, indefiniteness, non-finite entries, bad tol)."""


class DimensionError(InvalidProblem):
    """Array shapes inconsistent with the declared dimensions."""


class SingularSystem(BoxIpmError):
    """A linear system was numerically singular (pivot below the rejection threshold)."""


class ParamOverflow(BoxIpmError):
    """The method-parameter cascade left the binary64 range for this instance."""


class OutOfDomain(BoxIpmError):
    """A barrier evaluation was requested at a point with some |x_j| >= 1 - 4*eps."""


class PrimalInitFailed(BoxIpmError):
    """The primal Newton phase missed its gradient-norm target after K steps."""


class StepRejected(BoxIpmError):
    """A primal-dual Newton step failed its post-step guarantee check.

    Carries where it happened, each field ``None`` when unknown: the step
    ``kind`` and its ``tau``; for a failed post-check the residual ``block``
    (``"eq"`` or ``"comp"``), its ``value`` and the ``limit`` it exceeded;
    and, when raised inside ``solve()``, the path-following ``cycle``
    (0 for the initial error reset).
    """

    FIELDS = ("kind", "cycle", "tau", "block", "value", "limit")

    def __init__(self, message, *, kind=None, tau=None, block=None, value=None, limit=None,
                 cycle=None):
        super().__init__(message)
        self.kind = kind
        self.cycle = cycle
        self.tau = tau
        self.block = block
        self.value = value
        self.limit = limit

    def context(self) -> dict:
        """The fields that are set, in the order of ``FIELDS``."""
        return {f: getattr(self, f) for f in self.FIELDS if getattr(self, f) is not None}


class IterationBudgetExceeded(BoxIpmError):
    """The path-following loop consumed all M cycles without reaching tau_E."""


class PiCapExceeded(BoxIpmError):
    """The geometric schedule of box-scaling trials hit its cap."""


class TooLarge(BoxIpmError):
    """Instance too large for the brute-force reference solver (n > 10)."""


class BracketFailed(BoxIpmError):
    """The reference solver's penalty continuation did not stabilize."""


class ParseError(BoxIpmError):
    """Problem-file text rejected; carries a 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
