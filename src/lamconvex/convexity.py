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

Applying the split interval-by-interval on a common refinement builds,
for any mixing weight, a single step laminate whose twelve parameters are
exactly the convex combination of the two inputs' parameters: E takes
the input with the smaller weight, so f <= 1/2, and each interval whose
angles differ becomes 4 pieces, [E, rest, E, rest]. The same construction
matches integral f(theta(z)) z^j dz for arbitrary f, not just the trig
family.
"""

import math
from dataclasses import dataclass

from .errors import AlphaOutOfRange, DegenerateInterval
from .parameters import LamParams, blend, lamination_parameters
from .step import StepLaminate, refine

# Verdict tolerance of verify_combination and of the CLI's --tolerance.
DEFAULT_TOLERANCE = 1e-12


def matched_split(lo, hi, fraction: float):
    """(b, c, d) of the split of (lo, hi) whose matched set
    E = (lo, b) u (c, d) carries `fraction` of all three moments; the
    complement (b, c) u (d, hi) carries the rest.

    lo and hi are floats, or float64 arrays of one shape split
    elementwise; fraction is one float. Both take the same IEEE
    operations, so an array gives bit for bit the floats of one call per
    interval: the three coefficients of the module docstring are formed
    once from the fraction, and each point is lo + coefficient * (hi - lo).
    The strict order lo < b < c < d < hi holds in exact arithmetic; in
    floating point the points of a tiny interval, or at a fraction within
    a few units of round-off of 0 or 1, may coincide with each other or
    an end.

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

    On each interval of the common refinement where the two angles are
    equal a single piece with t1's angle is emitted. Otherwise the
    interval is split into 4 pieces, [E, rest, E, rest], with the matched
    set E on the small side: fraction alpha carrying t2's angle when
    alpha < 1/2, else fraction 1 - alpha (exact) carrying t1's. One
    `matched_split` call splits every such interval at once.
    `from_pieces` then drops the pieces whose split points coincided or
    crossed in floating point, and merges neighbours of equal angle. The
    angles are the input angle objects themselves.

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
    fraction, matched, rest = (alpha, ang2, ang1) if alpha < 0.5 else (1.0 - alpha, ang1, ang2)
    # one block of 4 pieces per refinement interval; an interval whose
    # angles agree keeps only the last piece, the whole interval with t1's angle
    rights = np.empty((n, 4))
    rights[differ, :3] = np.column_stack(
        matched_split(edges[:-1][differ], edges[1:][differ], fraction))
    rights[:, 3] = edges[1:]
    angles = np.empty((n, 4), dtype=object)
    angles[:, 0::2] = matched[:, None]
    angles[:, 1::2] = rest[:, None]
    angles[~differ, 3] = ang1[~differ]
    keep = np.ones((n, 4), dtype=bool)
    keep[~differ, :3] = False
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
                       tolerance: float = DEFAULT_TOLERANCE) -> CombinationReport:
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
