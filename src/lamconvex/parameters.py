"""The twelve lamination parameters of a step-function layup.

Each parameter is an integral over [-1, 1] of one of the four trig
functions cos(2*theta), cos(4*theta), sin(2*theta), sin(4*theta) of the
layup angle, weighted by z^0, z^1 or z^2 and scaled so every parameter
lies in [-1, 1]:

    xi_a[k] = 1/2 * integral f_k(theta(z)) dz
    xi_b[k] =       integral f_k(theta(z)) z dz
    xi_d[k] = 3/2 * integral f_k(theta(z)) z^2 dz

For a step function each integral is a finite sum over the intervals:
the interval's trig values times its closed-form moments
(hi - lo, (hi^2 - lo^2)/2, (hi^3 - lo^3)/3). `lamination_parameters`
computes that sum in floats, with no quadrature error. It is not exact,
but each moment is taken in width-proportional form and is within a few
u (u = 2^-53) of its own size, so what remains is summation round-off.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Collection, Sequence
from operator import mul, sub

from ._record import Record
from .step import StepLaminate

# Scale factors for the z^0, z^1, z^2 weighted families.
_PREFACTORS = (0.5, 1.0, 1.5)


class LamParams(Record):
    """In-plane (xi_a), coupling (xi_b) and bending (xi_d) parameter
    quadruples, ordered [cos 2t, cos 4t, sin 2t, sin 4t]."""

    __slots__ = ("xi_a", "xi_b", "xi_d")
    xi_a: tuple[float, float, float, float]
    xi_b: tuple[float, float, float, float]
    xi_d: tuple[float, float, float, float]

    def flat(self) -> tuple[float, ...]:
        """All twelve components in the fixed order A1..A4, B1..B4, D1..D4."""
        return self.xi_a + self.xi_b + self.xi_d

    def as_dict(self) -> dict:
        return {
            "xiA": list(self.xi_a),
            "xiB": list(self.xi_b),
            "xiD": list(self.xi_d),
        }


# Intervals per block of the kernel. It bounds the kernel's temporaries,
# whatever the ply count: one block's moment and index lists, about
# 0.5 MB at 2048 intervals (2.1 MB at 8192, which was no faster).
_BLOCK = 1 << 11


def lamination_parameters(t: StepLaminate) -> LamParams:
    """Lamination parameters of a step laminate from closed-form moments.

    No quadrature is involved. The laminate is taken `_BLOCK` intervals
    at a time, so no temporary grows with the ply count. In a block,
    math.fsum adds the float moments (`_interval_moments`, each within a
    few u of its own size) of each angle's intervals, each sum times a
    trig value of its angle is rounded once, and math.fsum adds those
    products over the angles and then over the blocks.
    """
    bps, angles = t.breakpoints, t.angles
    parts = [[] for _ in range(12)]  # parts[4j + k]: trig k times moment j, per block
    for start in range(0, t.ply_count, _BLOCK):
        moments = _interval_moments(bps[start:start + _BLOCK + 1])
        groups = defaultdict(list)  # angle -> indices of its intervals in the block
        for i, angle in enumerate(angles[start:start + _BLOCK]):
            groups[angle].append(i)
        rows = _trig_rows(groups)
        for j, m in enumerate(moments):
            sums = [math.fsum(map(m.__getitem__, index)) for index in groups.values()]
            for k, row in enumerate(rows):
                parts[4 * j + k].append(math.fsum(map(mul, row, sums)))
    sums = [math.fsum(row) for row in parts]
    return LamParams(*(tuple(p * s for s in sums[4 * j:4 * j + 4])
                       for j, p in enumerate(_PREFACTORS)))


def _interval_moments(edges: Sequence[float]) -> tuple[list[float], list[float], list[float]]:
    """Closed-form moments of order 0, 1 and 2 of the intervals between
    consecutive edges, in width-proportional form: with w = hi - lo, they
    are w, w * (hi + lo) / 2 and w * (hi^2 + hi*lo + lo^2) / 3. Nothing
    cancels (hi^2 + hi*lo + lo^2 >= (hi^2 + lo^2) / 2), so each moment is
    within a few u (u = 2^-53) of its exact value relative to the moment
    itself (barring underflow), however thin the interval."""
    lo, hi = edges[:-1], edges[1:]
    w = list(map(sub, hi, lo))
    return (w, [x * (b + a) / 2.0 for x, a, b in zip(w, lo, hi)],
            [x * (b * b + b * a + a * a) / 3.0 for x, a, b in zip(w, lo, hi)])


def _trig_rows(angles: Collection[float]) -> list[list[float]]:
    """Rows [cos 2a], [cos 4a], [sin 2a], [sin 4a] over the angles a."""
    return [[f(c * a) for a in angles]
            for f, c in ((math.cos, 2.0), (math.cos, 4.0), (math.sin, 2.0), (math.sin, 4.0))]


def blend(p: LamParams, q: LamParams, weight_on_first: float) -> LamParams:
    """Componentwise convex blend: weight_on_first * p + (1 - w) * q."""
    w = weight_on_first
    mix = lambda x, y: tuple(w * a + (1.0 - w) * b for a, b in zip(x, y))
    return LamParams(mix(p.xi_a, q.xi_a), mix(p.xi_b, q.xi_b), mix(p.xi_d, q.xi_d))
