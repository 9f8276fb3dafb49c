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
from dataclasses import dataclass
from typing import Sequence

from .step import StepLaminate

# Scale factors for the z^0, z^1, z^2 weighted families.
_PREFACTORS = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class LamParams:
    """In-plane (xi_a), coupling (xi_b) and bending (xi_d) parameter
    quadruples, ordered [cos 2t, cos 4t, sin 2t, sin 4t]."""

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


# Intervals per block of the kernel. It bounds the kernel's temporaries
# to about 1 MB, whatever the ply count.
_BLOCK = 1 << 13


def lamination_parameters(t: StepLaminate) -> LamParams:
    """Lamination parameters of a step laminate from closed-form moments.

    No quadrature is involved: per interval the four trig values multiply
    the interval's float moments (`_interval_moments`, each within a few
    u of its own size), and the products are summed; the error is of the
    order of the summation's. The laminate is taken `_BLOCK` intervals at
    a time, so no temporary grows with the ply count. Each block is
    summed pairwise (np.sum, error growing like log2(_BLOCK) * u), and
    math.fsum adds the block sums with a single rounding.
    """
    import numpy as np
    parts = []
    for start in range(0, t.ply_count, _BLOCK):
        edges = np.array(t.breakpoints[start:start + _BLOCK + 1])
        values = _trig_rows(t.angles[start:start + _BLOCK])
        parts.append((values[:, np.newaxis] * _interval_moments(edges)).sum(axis=-1))
    # parts[block][k][j]: trig value k times the order-j moment; row 4j + k
    # below collects it over the blocks
    rows = np.array(parts).transpose(2, 1, 0).reshape(12, len(parts)).tolist()
    sums = [math.fsum(row) for row in rows]
    return LamParams(*(tuple(p * s for s in sums[4 * j:4 * j + 4])
                       for j, p in enumerate(_PREFACTORS)))


def _interval_moments(edges: np.ndarray) -> np.ndarray:
    """3 x B closed-form moments of the B intervals between consecutive
    edges, in width-proportional form: with w = hi - lo, they are w,
    w * (hi + lo) / 2 and w * (hi^2 + hi*lo + lo^2) / 3. Nothing cancels
    (hi^2 + hi*lo + lo^2 >= (hi^2 + lo^2) / 2), so each moment is within a
    few u (u = 2^-53) of its exact value relative to the moment itself
    (barring underflow), however thin the interval."""
    import numpy as np
    lo, hi = edges[:-1], edges[1:]
    w = hi - lo
    return np.stack((w, w * (hi + lo) / 2.0, w * (hi * hi + hi * lo + lo * lo) / 3.0))


def _trig_rows(angles: Sequence[float]) -> np.ndarray:
    """4 x B array of (cos 2a, cos 4a, sin 2a, sin 4a)."""
    import numpy as np
    a = np.fromiter(angles, np.float64, len(angles))
    x = np.multiply.outer((2.0, 4.0), a)
    rows = np.empty((4, a.size))
    np.cos(x, out=rows[:2])
    np.sin(x, out=rows[2:])
    return rows


def blend(p: LamParams, q: LamParams, weight_on_first: float) -> LamParams:
    """Componentwise convex blend: weight_on_first * p + (1 - w) * q."""
    w = weight_on_first
    mix = lambda x, y: tuple(w * a + (1.0 - w) * b for a, b in zip(x, y))
    return LamParams(mix(p.xi_a, q.xi_a), mix(p.xi_b, q.xi_b), mix(p.xi_d, q.xi_d))
