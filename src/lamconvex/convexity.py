"""Constructive convex combination of two layups' lamination parameters.

The core primitive: given an interval (lo, hi) and a fraction in (0, 1),
find a two-interval subset E = (a, b) u (c, d) whose moments of order
0, 1 and 2 all equal exactly that fraction of the whole interval's
moments. Requiring the two subintervals to share one width e leaves two
centers x < y to determine; matching the three moments gives

    e      = fraction * (hi - lo) / 2
    y - x  = ((hi - lo) / 2) * sqrt((4 - fraction^2) / 3)
    x + y  = lo + hi

and the centered-gap expression is finite and stable for every fraction
in (0, 1). Strict interior ordering lo < a < b < c < d < hi holds because
fraction^2 - 3*fraction + 2 > 0 on (0, 1).

Applying the split interval-by-interval on a common refinement builds,
for any mixing weight, a single step laminate whose twelve parameters are
exactly the convex combination of the two inputs' parameters. The same
construction matches integral f(theta(z)) z^j dz for arbitrary f, not
just the trig family.
"""

import math
from dataclasses import dataclass

from .errors import AlphaOutOfRange, DegenerateInterval, InvariantViolation
from .parameters import LamParams, blend, lamination_parameters
from .step import ANGLE_MERGE_TOL, StepLaminate, refine


@dataclass(frozen=True)
class IntervalSplit:
    """A moment-matched two-interval subset of (lo, hi).

    The matched set E = (a, b) u (c, d) carries `fraction` of the
    interval's moments of order 0, 1, 2; the complement
    (lo, a) u (b, c) u (d, hi) carries the rest. Both subintervals of E
    share the single stored width `pair_width` (b and d are constructed
    as a + pair_width and c + pair_width); `center_gap` is the distance
    between their midpoints.
    """

    lo: float
    hi: float
    fraction: float
    a: float
    b: float
    c: float
    d: float
    pair_width: float
    center_gap: float

    def __post_init__(self):
        if not (self.lo < self.a < self.b < self.c < self.d < self.hi):
            raise InvariantViolation(
                "split points not strictly ordered inside the interval: "
                f"{(self.lo, self.a, self.b, self.c, self.d, self.hi)}")


def matched_split(lo: float, hi: float, fraction: float) -> IntervalSplit:
    """Split (lo, hi) so the matched set carries `fraction` of all three
    moments.

    Raises:
        DegenerateInterval: if lo >= hi or an endpoint is not finite.
        AlphaOutOfRange: if fraction is not strictly inside (0, 1).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DegenerateInterval(f"cannot split interval ({lo}, {hi})")
    if not 0.0 < fraction < 1.0:
        raise AlphaOutOfRange(f"fraction must lie in (0, 1), got {fraction}")
    return IntervalSplit(lo, hi, fraction, *_split_points(lo, hi, fraction))


def _split_points(lo: float, hi: float, fraction: float) -> tuple[float, ...]:
    """(a, b, c, d, pair_width, center_gap) of the matched split, unchecked:
    in floating point, points of a tiny interval or piece may coincide."""
    half = 0.5 * (hi - lo)
    width = fraction * half
    gap = half * math.sqrt((4.0 - fraction * fraction) / 3.0)
    mid = 0.5 * (lo + hi)
    x = mid - 0.5 * gap
    y = mid + 0.5 * gap
    a = x - 0.5 * width
    c = y - 0.5 * width
    return a, a + width, c, c + width, width, gap


def convex_combine(t1: StepLaminate, t2: StepLaminate, alpha: float) -> StepLaminate:
    """Build a step laminate whose parameters equal
    (1 - alpha) * params(t1) + alpha * params(t2), componentwise.

    On each interval of the common refinement where the two angles agree
    (within ANGLE_MERGE_TOL) a single piece is emitted. Otherwise the
    interval is split with the matched fraction (1 - alpha) carrying t1's
    angle and the complement carrying t2's, giving at most 5 pieces per
    refinement interval. The output partition is not simplified.

    Raises:
        AlphaOutOfRange: if alpha is outside [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return t1
    if alpha == 1.0:
        return t2
    rp = refine(t1, t2)
    pieces: list[tuple[float, float]] = []
    for i in range(len(rp.angles1)):
        right = rp.breakpoints[i + 1]
        ang1 = rp.angles1[i]
        ang2 = rp.angles2[i]
        if abs(ang1 - ang2) < ANGLE_MERGE_TOL:
            pieces.append((right, ang1))
            continue
        s = matched_split(rp.breakpoints[i], right, 1.0 - alpha)
        pieces.append((s.a, ang2))
        pieces.append((s.b, ang1))
        pieces.append((s.c, ang2))
        pieces.append((s.d, ang1))
        pieces.append((right, ang2))
    return StepLaminate.from_pieces(pieces)


@dataclass(frozen=True)
class CombinationReport:
    """Componentwise check of the convex-combination identity."""

    alpha: float
    expected: LamParams
    actual: LamParams
    residuals: tuple[float, ...]
    max_residual: float
    tolerance: float
    passed: bool


def verify_combination(t1: StepLaminate, t2: StepLaminate, alpha: float,
                       result: StepLaminate,
                       tolerance: float = 1e-12) -> CombinationReport:
    """Residuals of params(result) against
    (1 - alpha) * params(t1) + alpha * params(t2), with a verdict at the
    given tolerance."""
    expected = blend(lamination_parameters(t1), lamination_parameters(t2), 1.0 - alpha)
    actual = lamination_parameters(result)
    residuals = tuple(abs(e - a) for e, a in zip(expected.flat(), actual.flat()))
    worst = max(residuals)
    return CombinationReport(
        alpha=alpha,
        expected=expected,
        actual=actual,
        residuals=residuals,
        max_residual=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
