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
in (0, 1). Strict interior ordering lo < a < b < c < d < hi holds in
exact arithmetic because fraction^2 - 3*fraction + 2 > 0 on (0, 1).

Applying the split interval-by-interval on a common refinement builds,
for any mixing weight, a single step laminate whose twelve parameters are
exactly the convex combination of the two inputs' parameters. The same
construction matches integral f(theta(z)) z^j dz for arbitrary f, not
just the trig family.
"""

import math
from dataclasses import dataclass

from .errors import AlphaOutOfRange, DegenerateInterval
from .parameters import LamParams, blend, lamination_parameters
from .step import StepLaminate, refine


def matched_split(lo, hi, fraction: float):
    """(a, b, c, d) of the split of (lo, hi) whose matched set
    E = (a, b) u (c, d) carries `fraction` of all three moments; the
    complement (lo, a) u (b, c) u (d, hi) carries the rest.

    lo and hi are floats, or float64 arrays of one shape split
    elementwise; fraction is one float. Both take the same IEEE
    operations, so an array gives bit for bit the floats of one call per
    interval. b and d are built as a + width and c + width from the one
    shared width fraction * (hi - lo) / 2. The strict order
    lo < a < b < c < d < hi holds in exact arithmetic; in floating point
    the points of a tiny interval, or at a fraction within a few units of
    round-off of 0 or 1, may coincide with each other or an end.

    Raises:
        DegenerateInterval: if some lo >= hi or an endpoint is not finite.
        AlphaOutOfRange: if fraction is not strictly inside (0, 1).
    """
    # a bool for floats, so that a scalar call does not need numpy
    ok = (-math.inf < lo) & (lo < hi) & (hi < math.inf)
    if not (ok if isinstance(ok, bool) else ok.all()):
        import numpy as np
        i = np.argmin(ok)
        los, his = (np.ravel(v) for v in np.broadcast_arrays(lo, hi))
        raise DegenerateInterval(f"cannot split interval ({los[i]}, {his[i]})")
    if not 0.0 < fraction < 1.0:
        raise AlphaOutOfRange(f"fraction must lie in (0, 1), got {fraction}")
    half = 0.5 * (hi - lo)
    width = fraction * half
    gap = half * math.sqrt((4.0 - fraction * fraction) / 3.0)
    mid = 0.5 * (lo + hi)
    a = (mid - 0.5 * gap) - 0.5 * width
    c = (mid + 0.5 * gap) - 0.5 * width
    return a, a + width, c, c + width


def convex_combine(t1: StepLaminate, t2: StepLaminate, alpha: float) -> StepLaminate:
    """Build a step laminate whose parameters equal
    (1 - alpha) * params(t1) + alpha * params(t2), componentwise.

    On each interval of the common refinement where the two angles are
    equal a single piece with t1's angle is emitted. Otherwise the
    interval is split with the matched fraction (1 - alpha) carrying t1's
    angle and the complement carrying t2's, giving 5 pieces: one
    `matched_split` call splits every such interval at once.
    `from_pieces` then drops only the pieces whose split points coincided
    or crossed in floating point. The output partition is not simplified,
    and its angles are the input angle objects themselves.

    Raises:
        AlphaOutOfRange: if alpha is outside [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0 or 1.0 - alpha == 1.0:
        # weight exactly 1 on t1 in floating point: t1 is the combination
        return t1
    if alpha == 1.0:
        return t2
    import numpy as np
    rp = refine(t1, t2)
    n = len(rp.angles1)
    edges = np.array(rp.breakpoints)
    ang1 = np.array(rp.angles1, dtype=object)
    ang2 = np.array(rp.angles2, dtype=object)
    differ = ang1 != ang2
    # one block of 5 pieces per refinement interval; an interval whose
    # angles agree keeps only the last piece, the whole interval with t1's angle
    rights = np.empty((n, 5))
    rights[differ, :4] = np.column_stack(
        matched_split(edges[:-1][differ], edges[1:][differ], 1.0 - alpha))
    rights[:, 4] = edges[1:]
    angles = np.empty((n, 5), dtype=object)
    angles[:, 0::2] = ang2[:, None]
    angles[:, 1::2] = ang1[:, None]
    angles[~differ, 4] = ang1[~differ]
    keep = np.ones((n, 5), dtype=bool)
    keep[~differ, :4] = False
    return StepLaminate.from_pieces(rights[keep], angles[keep])


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
