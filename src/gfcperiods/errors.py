"""Exception types raised across the package."""


class GfcError(Exception):
    """Base class for all errors raised by gfcperiods."""


class DegenerateInput(GfcError, ValueError):
    """Curve parameters out of range (k < 2, n < 2, wrong lambda count, or a
    non-finite lambda)."""


class CollidingBranchPoints(GfcError, ValueError):
    """Two finite branch points coincide (lambdas must avoid 0, 1 and each other)."""


class BasePointOnBranchPoint(GfcError, ValueError):
    """Branch continuation started exactly on a branch point."""


class StepTooCoarse(GfcError):
    """A path segment runs through a branch point.

    piece, when set, is the position of that segment among the segments
    the caller handed over together.
    """

    def __init__(self, message: str, piece: int | None = None):
        super().__init__(message)
        self.piece = piece


class ClearanceUnachievable(GfcError):
    """No detour keeps the path clear of the remaining branch points."""


class NoConvergence(GfcError):
    """Quadrature failed to meet the relative tolerance within the level budget.

    form, when set, is the position in the caller's form list of the first
    form that did not converge, and piece, when set, the position of its
    segment among the segments the caller handed over together.
    """

    def __init__(self, message: str, form: int | None = None, piece: int | None = None):
        super().__init__(message)
        self.form = form
        self.piece = piece


class IntegralUnderflow(GfcError):
    """A base integral rounded to exactly 0: the curve's periods lie below
    the double range."""


class NotFullRank(GfcError):
    """Generator vectors do not span a rank-2g lattice."""


class ReconstructionFailed(GfcError):
    """A generator is not an integer combination of the extracted basis rows."""


class InvalidArity(GfcError, ValueError):
    """Closed form requested for a curve rank it does not apply to."""


class DegenerateLambda(GfcError, ValueError):
    """Elliptic-period oracle called with lambda in {0, 1}."""
