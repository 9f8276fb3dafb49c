"""The twelve lamination parameters of a step-function layup.

Each parameter is an integral over [-1, 1] of one of the four trig
functions cos(2*theta), cos(4*theta), sin(2*theta), sin(4*theta) of the
layup angle, weighted by z^0, z^1 or z^2 and scaled so every parameter
lies in [-1, 1]:

    xi_a[k] = 1/2 * integral f_k(theta(z)) dz
    xi_b[k] =       integral f_k(theta(z)) z dz
    xi_d[k] = 3/2 * integral f_k(theta(z)) z^2 dz

For a step function the integrals reduce to finite sums of closed-form
interval moments, so `lamination_parameters` is exact up to float
round-off. `quadrature_parameters` recomputes the same quantities by
composite midpoint sampling and serves as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .step import StepLaminate, _exact_moments

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


def trig_values(angle: float) -> tuple[float, float, float, float]:
    """(cos 2a, cos 4a, sin 2a, sin 4a) for a = angle: the floats the parameters use."""
    return tuple(_trig_rows((angle,))[:, 0].tolist())


# Intervals per block of the moment kernel. It bounds the kernel's
# temporaries to about 1 MB, whatever the ply count.
_BLOCK = 1 << 13

def _moment_sums(t: StepLaminate, rows: Callable[[Sequence[float]], np.ndarray],
                 interval_moments: Callable[[np.ndarray], np.ndarray] = _exact_moments,
                 block: int = _BLOCK) -> list[list[float]]:
    """k x 3 moment sums over the intervals of t.

    `rows` maps a run of B angles to their k x B values. Entry [r][j] is
    the sum over intervals i of value r of angle i times the order-j
    moment of interval i. The laminate is taken `block` intervals at a
    time, so no temporary grows with the ply count. Each block is summed
    pairwise (np.sum, error growing like log2(block) * u), and math.fsum
    adds the block sums with a single rounding.
    """
    import numpy as np
    parts = []
    for start in range(0, t.ply_count, block):
        edges = np.array(t.breakpoints[start:start + block + 1])
        values = rows(t.angles[start:start + block])
        parts.append((values[:, np.newaxis] * interval_moments(edges)).sum(axis=-1))
    k = parts[0].shape[0]
    columns = np.array(parts).reshape(len(parts), 3 * k).T.tolist()
    totals = [math.fsum(c) for c in columns]
    return [totals[3 * r:3 * r + 3] for r in range(k)]


def _trig_rows(angles: Sequence[float]) -> np.ndarray:
    """4 x B array of (cos 2a, cos 4a, sin 2a, sin 4a)."""
    import numpy as np
    a = np.fromiter(angles, np.float64, len(angles))
    x = np.multiply.outer((2.0, 4.0), a)
    rows = np.empty((4, a.size))
    np.cos(x, out=rows[:2])
    np.sin(x, out=rows[2:])
    return rows


def weighted_moments(t: StepLaminate,
                     f: Callable[[float], float]) -> tuple[float, float, float]:
    """integral f(theta(z)) z^j dz for j = 0, 1, 2, for any f.

    Exact for step functions: each interval contributes f(angle) times the
    closed-form interval moment. This generic entry point runs the same
    kernel as the trig parameters and lets tests drive it with arbitrary f.
    """
    import numpy as np

    def rows(angles: Sequence[float]) -> np.ndarray:
        return np.fromiter(map(f, angles), np.float64, len(angles))[np.newaxis]

    return tuple(_moment_sums(t, rows)[0])


def _from_sums(sums) -> LamParams:
    return LamParams(
        xi_a=tuple(_PREFACTORS[0] * sums[k][0] for k in range(4)),
        xi_b=tuple(_PREFACTORS[1] * sums[k][1] for k in range(4)),
        xi_d=tuple(_PREFACTORS[2] * sums[k][2] for k in range(4)),
    )


def lamination_parameters(t: StepLaminate) -> LamParams:
    """Exact lamination parameters of a step laminate.

    No quadrature is involved: per interval the four trig values multiply
    the closed-form moments, and the contributions are summed.
    """
    return _from_sums(_moment_sums(t, _trig_rows))


def quadrature_parameters(t: StepLaminate, samples_per_interval: int) -> LamParams:
    """Composite midpoint-rule approximation of the parameters.

    Each laminate interval is sampled independently (samples never
    straddle a breakpoint), so the only error is the midpoint rule's
    O(h^2) term on the z^2 weight plus float round-off. Converges to
    `lamination_parameters` as the sample count grows.

    Args:
        samples_per_interval: midpoint samples per laminate interval, >= 1.
    """
    import numpy as np
    if samples_per_interval < 1:
        raise ValueError(f"samples_per_interval must be >= 1, got {samples_per_interval}")
    m = int(samples_per_interval)
    offsets = np.arange(m, dtype=np.float64) + 0.5

    def sampled_moments(edges: np.ndarray) -> np.ndarray:
        h = (edges[1:] - edges[:-1]) / m
        z = np.multiply.outer(h, offsets)
        z += edges[:-1, np.newaxis]
        s1 = z.sum(axis=1)
        z *= z
        return np.stack((h * m, h * s1, h * z.sum(axis=1)))

    return _from_sums(_moment_sums(t, _trig_rows, sampled_moments, block=max(1, _BLOCK // m)))


def blend(p: LamParams, q: LamParams, weight_on_first: float) -> LamParams:
    """Componentwise convex blend: weight_on_first * p + (1 - w) * q."""
    w = weight_on_first
    mix = lambda x, y: tuple(w * a + (1.0 - w) * b for a, b in zip(x, y))
    return LamParams(mix(p.xi_a, q.xi_a), mix(p.xi_b, q.xi_b), mix(p.xi_d, q.xi_d))
