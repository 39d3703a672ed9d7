"""Exception hierarchy for boxipm.

Every error raised deliberately by this package derives from
:class:`BoxIpmError`, so callers (and the CLI) can distinguish solver
failures from genuine bugs.
"""


class BoxIpmError(Exception):
    """Base class for all boxipm errors.

    A subclass that can say where it happened names its keyword fields in
    ``FIELDS``; each is ``None`` when unknown, and :meth:`context` lists the
    set ones.
    """

    FIELDS: tuple[str, ...] = ()

    def __init__(self, message="", **fields):
        unknown = set(fields) - set(self.FIELDS)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(unknown)}")
        super().__init__(message)
        for f in self.FIELDS:
            setattr(self, f, fields.get(f))

    def context(self) -> dict:
        """The fields that are set, in the order of ``FIELDS``."""
        return {f: getattr(self, f) for f in self.FIELDS if getattr(self, f) is not None}


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
    """The primal Newton phase missed a guarantee of x_K after K steps.

    ``bound`` is ``"gradient"`` (||grad f(x_K)|| above rho) or ``"x_norm"``
    (||x_K||_2 above 0.5), with the norm's ``value``, its ``limit`` and ``K``.
    """

    FIELDS = ("bound", "value", "limit", "K")


class StepRejected(BoxIpmError):
    """A primal-dual Newton step failed its post-step guarantee check.

    Carries where it happened, each field ``None`` when unknown: the step
    ``kind`` and its ``tau``; for a failed post-check the residual ``block``
    (``"eq"`` or ``"comp"``), its ``value`` and the ``limit`` it exceeded,
    and for a step that left the interior, driving some mu or
    e = (1 + x, 1 - x) to zero or below, the block ``"interior"``, with
    the minimum of (mu, e) as its value and 0 as its limit; and,
    when raised inside ``solve()``, the path-following ``cycle`` (0 for the
    initial error reset).
    """

    FIELDS = ("kind", "cycle", "tau", "block", "value", "limit")


class IterationBudgetExceeded(BoxIpmError):
    """The path-following loop consumed all M cycles without reaching tau_E;
    carries the final ``tau``, ``tau_E`` and ``M``."""

    FIELDS = ("tau", "tau_E", "M")


class PiCapExceeded(BoxIpmError):
    """The geometric schedule of box-scaling trials hit its cap."""


class TooLarge(BoxIpmError):
    """Instance too large for the brute-force reference solver (n > 10)."""


class BracketFailed(BoxIpmError):
    """No activity pattern of the reference solver's enumeration satisfied
    the optimality conditions."""


class ParseError(BoxIpmError):
    """Problem-file text rejected; carries a 1-based ``line`` and ``column``,
    which the message also names."""

    FIELDS = ("line", "column")

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc, line=line, column=column)
