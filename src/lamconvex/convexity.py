"""Constructive convex combination of two layups' lamination parameters.

The core primitive: given an interval (lo, hi) and a fraction f in
(0, 1), find a two-interval subset E whose moments of order 0, 1 and 2
all equal exactly f times the whole interval's moments. One interval
has two unknowns for three equations, so two are the fewest. Anchoring
the first at lo leaves three unknowns; on [0, 1], E = (0, b) u (c, c + w)
with

    c = (2 - f) / 3
    w = (8f - 4 + sqrt(8 (2 - f)(1 + f))) / 12
      = 6f (1 - f) / (sqrt(8 (2 - f)(1 + f)) + 4 - 8f)
    b = f - w

(the second form of w for f < 1/2, where the first cancels), and
(lo, hi) is split at lo + b L, lo + c L and lo + (c + w) L with
L = hi - lo. The strict order 0 < b < c < c + w < 1 holds in exact
arithmetic for every f in (0, 1).

Reflecting z -> lo + hi - z keeps the degree of a polynomial, so the
mirror image of E, anchored at hi, matches the same moments.

Applying the split once per region builds, for any mixing weight, a
single step laminate whose twelve parameters are exactly the convex
combination of the two inputs' parameters. The regions are the
intervals of the common refinement of the inputs' runs, each run a
maximal stretch of plies of one angle: the largest intervals on which
both angles are constant. E takes the input with the smaller weight, so
f <= 1/2, and each region whose angles differ becomes 4 pieces,
[E, rest, E, rest], or the mirror [rest, E, rest, E] where that merges
its first piece with the last piece before it. The same construction
matches integral f(theta(z)) z^j dz for arbitrary f, not just the trig
family.
"""

import math
from collections.abc import Iterator
from itertools import islice

from ._record import Record
from .parameters import LamParams, blend, lamination_parameters
from .step import StepLaminate, refine


def matched_split(lo: float, hi: float, fraction: float) -> tuple[float, float, float]:
    """(b, c, d) of the split of (lo, hi) whose matched set
    E = (lo, b) u (c, d) carries `fraction` of all three moments; the
    complement (b, c) u (d, hi) carries the rest.

    The three coefficients of the module docstring are formed from the
    fraction, and each point is lo + coefficient * (hi - lo); on the unit
    interval, (0.0, 1.0), the points are the coefficients themselves,
    exactly. The strict order lo < b < c < d < hi holds in exact
    arithmetic; in floating point the points of a tiny interval, or at a
    fraction within a few units of round-off of 0 or 1, may coincide with
    each other or an end.

    Raises:
        ValueError: if lo >= hi, or hi - lo is not finite (an endpoint is
            not, or the span overflows); or if fraction is not strictly
            inside (0, 1).
    """
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(f"cannot split interval ({lo}, {hi})")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    f = fraction
    root = math.sqrt(8.0 * (2.0 - f) * (1.0 + f))
    if f < 0.5:
        w = 6.0 * f * (1.0 - f) / (root + 4.0 - 8.0 * f)
    else:
        w = (8.0 * f - 4.0 + root) / 12.0
    c = (2.0 - f) / 3.0
    length = hi - lo
    return lo + (f - w) * length, lo + c * length, lo + (c + w) * length


def convex_combine(t1: StepLaminate, t2: StepLaminate, alpha: float) -> StepLaminate:
    """Build a step laminate whose parameters equal
    (1 - alpha) * params(t1) + alpha * params(t2), componentwise.

    The regions are the intervals of the common refinement of the inputs'
    runs, each input with its equal-angle neighbours merged by
    `from_pieces`: the maximal intervals on which neither input's angle
    changes. A region whose two angles are equal is one piece with t1's
    angle. Any other region is split once, into 4 pieces, with the matched
    set E on the small side: fraction alpha carrying t2's angle when
    alpha < 1/2, else fraction 1 - alpha (exact) carrying t1's. E is
    anchored at the region's left end, [E, rest, E, rest], unless the
    last piece emitted before it carries rest's angle; then the mirror
    [rest, E, rest, E], anchored at the right end, merges with that
    piece. One `matched_split` call on the unit interval gives the three
    split coefficients. A region's points take the float operations of
    `matched_split(lo, hi, f)`, or for the mirror those of
    `matched_split(-hi, -lo, f)` negated and reversed. `from_pieces` then
    drops the pieces whose split points coincided or crossed in floating
    point, and merges neighbours of equal angle. The angles are the input
    angle objects themselves.

    Raises:
        ValueError: if alpha is outside [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0 or 1.0 - alpha == 1.0:
        # weight exactly 1 on t1 in floating point: t1 is the combination
        return t1
    if alpha == 1.0:
        return t2
    return StepLaminate.from_pieces(_pieces(t1, t2, alpha))


def _pieces(t1: StepLaminate, t2: StepLaminate,
            alpha: float) -> Iterator[tuple[float, float]]:
    """The (right edge, angle) of each of `convex_combine`'s pieces, in
    order, for 0 < alpha < 1: a generator, so that `from_pieces` reads
    each region's pieces as they are made and no list of them is built.
    Each input reaches `refine` as its runs, so every refinement edge is
    an edge where an angle changes."""
    rp = refine(*(StepLaminate.from_pieces(zip(islice(t.breakpoints, 1, None), t.angles))
                  for t in (t1, t2)))
    edges, a1, a2 = rp.breakpoints, rp.angles1, rp.angles2
    fraction, matched, rest = (alpha, a2, a1) if alpha < 0.5 else (1.0 - alpha, a1, a2)
    b, c, d = matched_split(0.0, 1.0, fraction)
    # the mirror [rest, E, rest, E], anchored at hi, where its first piece
    # merges with the last one emitted
    prev = None
    for lo, hi, e, r, a in zip(edges, islice(edges, 1, None), matched, rest, a1):
        length = hi - lo
        if e == r:
            yield hi, a
            prev = a
        elif r == prev:
            yield hi - d * length, r
            yield hi - c * length, e
            yield hi - b * length, r
            yield hi, e
            prev = e
        else:
            yield lo + b * length, e
            yield lo + c * length, r
            yield lo + d * length, e
            yield hi, r
            prev = r


class CombinationReport(Record):
    """Componentwise residuals of the convex-combination identity; whether
    they pass is the caller's verdict."""

    __slots__ = ("expected", "actual", "residuals")
    expected: LamParams
    actual: LamParams
    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def verify_combination(t1: StepLaminate, t2: StepLaminate, alpha: float,
                       result: StepLaminate) -> CombinationReport:
    """Residuals of params(result) against
    (1 - alpha) * params(t1) + alpha * params(t2)."""
    expected = blend(lamination_parameters(t1), lamination_parameters(t2), 1.0 - alpha)
    actual = lamination_parameters(result)
    residuals = tuple(abs(e - a) for e, a in zip(expected.flat(), actual.flat()))
    return CombinationReport(expected, actual, residuals)
