"""Exception types shared across the package."""


class LamConvexError(Exception):
    """Base class for all lamconvex errors."""


class DegenerateInterval(LamConvexError):
    """An interval (lo, hi) with lo >= hi or non-finite endpoints."""


class AlphaOutOfRange(LamConvexError):
    """A mixing weight outside its admissible range."""


class UndefinedAtBreakpoint(LamConvexError):
    """Evaluation requested exactly at a partition point, where the
    step function has no value."""


class NotCoprime(LamConvexError):
    """Integer pair (p, q) with gcd(p, q) != 1 where coprimality is required."""


class JOutOfRange(LamConvexError):
    """Target residue j outside the range 1 .. q-1."""


class SearchCapExceeded(LamConvexError):
    """No index satisfying the requested fractional-part condition lies
    at or below the search cap.

    The message tells the two causes apart. Either the region contains no
    multiple of 1/q, where q is the denominator of y, so that no index
    exists at all; or the first admissible index lies above the cap, and
    the message names it.
    """

    def __init__(self, message: str, cap: int | None = None):
        super().__init__(message)
        self.cap = cap


class InvariantViolation(LamConvexError):
    """Structured data failing a documented invariant."""

    def __init__(self, message: str, field: str | None = None, index: int | None = None):
        super().__init__(message)
        self.field = field
        self.index = index


class ParseError(LamConvexError):
    """Malformed laminate file or argument text."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
