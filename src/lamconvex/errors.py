"""Exception types shared across the package.

An argument outside a function's domain (a weight, a fraction, an
interval, an integer pair or count) raises the built-in ValueError.
These classes cover the rest: data that breaks a laminate's invariants,
a malformed file, and an index search that passes its cap. Each carries
only its message, which names the offending entry.
"""


class LamConvexError(Exception):
    """Base class for all lamconvex errors."""


class SearchCapExceeded(LamConvexError):
    """No index satisfying the requested fractional-part condition lies
    at or below the search cap.

    The message tells the two causes apart. Either the region contains no
    multiple of 1/q, where q is the denominator of y, so that no index
    exists at all; or the first admissible index lies above the cap, and
    the message names it.
    """


class InvariantViolation(LamConvexError):
    """Structured data failing a documented invariant."""


class ParseError(LamConvexError):
    """Malformed laminate file."""
