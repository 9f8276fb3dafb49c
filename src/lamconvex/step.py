"""Step-function layups on the normalized thickness coordinate [-1, 1].

A laminate is modelled as a piecewise-constant angle function: an ordered
breakpoint sequence from -1 to 1 and one angle (radians) per interval.
Values exactly at breakpoints are deliberately undefined; they carry no
measure and every downstream quantity is an integral.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import itemgetter, lt
from typing import Iterable, Sequence

from .errors import DegenerateInterval, InvariantViolation, UndefinedAtBreakpoint

# Breakpoints closer than this are considered coincident and merged
# (the smaller value is kept).
BREAKPOINT_MERGE_TOL = 1e-12

# Angles closer than this count as equal: convex_combine emits one piece,
# not a split, on a refinement interval where both inputs' angles agree.
ANGLE_MERGE_TOL = 1e-12


def moments(lo: float, hi: float) -> tuple[float, float, float]:
    """Exact interval moments (hi-lo, (hi^2-lo^2)/2, (hi^3-lo^3)/3), the
    values of integral(z^j dz) over (lo, hi) for j = 0, 1, 2.

    Raises:
        DegenerateInterval: if lo >= hi or either endpoint is not finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DegenerateInterval(f"non-finite interval ({lo}, {hi})")
    if lo >= hi:
        raise DegenerateInterval(f"empty interval ({lo}, {hi})")
    import numpy as np
    return tuple(_exact_moments(np.array((lo, hi), dtype=np.float64))[:, 0].tolist())


def _exact_moments(edges: np.ndarray) -> np.ndarray:
    """3 x B closed-form moments (hi - lo, (hi^2 - lo^2)/2, (hi^3 - lo^3)/3)
    of the B intervals between consecutive edges, as differences of powers."""
    import numpy as np
    powers = np.empty((3, edges.size))
    powers[0] = edges
    np.multiply(edges, edges, out=powers[1])
    np.multiply(powers[1], edges, out=powers[2])
    return (powers[:, 1:] - powers[:, :-1]) / np.array([[1.0], [2.0], [3.0]])


@dataclass(frozen=True)
class StepLaminate:
    """Piecewise-constant layup-angle function on [-1, 1].

    breakpoints: strictly increasing, first exactly -1.0, last exactly 1.0.
    angles: one value per interval, radians.

    Instances are immutable and safe to share between threads.
    """

    breakpoints: tuple[float, ...]
    angles: tuple[float, ...]

    def __post_init__(self):
        bps = _float_tuple(self.breakpoints)
        angs = _float_tuple(self.angles)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "angles", angs)
        if len(bps) < 2:
            raise InvariantViolation("need at least two breakpoints", field="breakpoints")
        if len(angs) != len(bps) - 1:
            raise InvariantViolation(
                f"{len(angs)} angles for {len(bps)} breakpoints (expected {len(bps) - 1})",
                field="angles",
            )
        if not all(map(math.isfinite, bps)):
            i = list(map(math.isfinite, bps)).index(False)
            raise InvariantViolation(f"breakpoints[{i}] = {bps[i]} is not finite",
                                     field="breakpoints", index=i)
        if not all(map(math.isfinite, angs)):
            i = list(map(math.isfinite, angs)).index(False)
            raise InvariantViolation(f"angles[{i}] = {angs[i]} is not finite",
                                     field="angles", index=i)
        if not all(map(lt, bps, islice(bps, 1, None))):
            i = list(map(lt, bps, islice(bps, 1, None))).index(False)
            raise InvariantViolation(
                f"breakpoints[{i}] = {bps[i]} not below breakpoints[{i + 1}] = {bps[i + 1]}",
                field="breakpoints", index=i + 1)
        if bps[0] != -1.0:
            raise InvariantViolation(f"first breakpoint must be -1, got {bps[0]}",
                                     field="breakpoints", index=0)
        if bps[-1] != 1.0:
            raise InvariantViolation(f"last breakpoint must be 1, got {bps[-1]}",
                                     field="breakpoints", index=len(bps) - 1)

    @property
    def ply_count(self) -> int:
        return len(self.angles)

    def value_at(self, x: float) -> float:
        """Angle at interior point x.

        Raises:
            UndefinedAtBreakpoint: if x coincides with a breakpoint
                (including the endpoints -1 and 1).
            ValueError: if x lies outside [-1, 1].
        """
        if not (-1.0 <= x <= 1.0):
            raise ValueError(f"x = {x} outside [-1, 1]")
        pos = bisect.bisect_left(self.breakpoints, x)
        if pos < len(self.breakpoints) and self.breakpoints[pos] == x:
            raise UndefinedAtBreakpoint(f"step function undefined at breakpoint x = {x}")
        return self.angles[pos - 1]

    @classmethod
    def from_pieces(cls, pieces: Iterable[tuple[float, float]]) -> "StepLaminate":
        """Assemble from (right_edge, angle) pieces starting at -1.

        Pieces narrower than BREAKPOINT_MERGE_TOL are dropped; their sliver
        of thickness is absorbed by the neighbouring piece. The final right
        edge must be 1 (within tolerance) and is snapped to exactly 1.0.
        """
        import numpy as np
        if not isinstance(pieces, (list, tuple)):
            pieces = list(pieces)
        rights = np.fromiter(map(itemgetter(0), pieces), np.float64, len(pieces))
        keep = _kept(rights, -1.0, BREAKPOINT_MERGE_TOL).tolist()
        del rights
        last_right = pieces[-1][0] if pieces else -1.0
        if not abs(last_right - 1.0) <= BREAKPOINT_MERGE_TOL:
            raise InvariantViolation(f"pieces end at {last_right}, expected 1.0",
                                     field="breakpoints")
        angles = tuple(compress(map(itemgetter(1), pieces), keep))
        if not angles:
            raise InvariantViolation("no piece wider than the merge tolerance",
                                     field="angles")
        inner = islice(compress(map(itemgetter(0), pieces), keep), len(angles) - 1)
        edges = tuple(chain((-1.0,), inner, (1.0,)))
        return cls(edges, angles)


@dataclass(frozen=True)
class RefinedPair:
    """Two laminates expressed on their common breakpoint refinement."""

    breakpoints: tuple[float, ...]
    angles1: tuple[float, ...]
    angles2: tuple[float, ...]


def merge_close(sorted_values: Sequence[float]) -> list[float]:
    """Collapse runs of near-coincident values, keeping the smallest of
    each run. A value survives when it lies at least BREAKPOINT_MERGE_TOL
    above the last value kept, so a run of steps each below it can still
    keep some of its values. Input must be finite and sorted ascending; the
    last kept value is snapped back to the overall maximum so interval ends
    survive merging. The output holds the input's own objects.
    """
    import numpy as np
    values = np.asarray(sorted_values, dtype=np.float64)
    keep = _kept(values[1:], values[0], BREAKPOINT_MERGE_TOL).tolist()
    out = [sorted_values[0], *compress(islice(sorted_values, 1, None), keep)]
    out[-1] = sorted_values[-1]
    return out


def refine(t1: StepLaminate, t2: StepLaminate) -> RefinedPair:
    """Common refinement: the union of both breakpoint sets, with each
    input's constant value recorded per refinement interval.

    Breakpoints of the two inputs closer than BREAKPOINT_MERGE_TOL are
    merged (smaller kept). Each refinement interval takes each input's
    angle at its midpoint; a midpoint that lands on a merged-away
    breakpoint takes the angle to its right.
    """
    import numpy as np
    bps = merge_close(sorted(t1.breakpoints + t2.breakpoints))
    mids = _midpoints(np.array(bps))
    return RefinedPair(tuple(bps), _angles_at(t1, mids), _angles_at(t2, mids))


def _float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    """values as a tuple of floats; a tuple of floats is returned as is."""
    if type(values) is tuple and set(map(type, values)) <= {float}:
        return values
    return tuple(map(float, values))


def _kept(values: np.ndarray, start: float, tol: float) -> np.ndarray:
    """Mask of the values that a left-to-right scan keeps when it keeps a
    value unless it lies less than tol above the last value kept, with
    `start` kept before values[0].

    A value at least tol above every earlier value is kept whatever the
    scan kept before it. Only the others, the runs of close values, are
    decided one by one, in order.
    """
    import numpy as np
    gap = np.empty_like(values)
    gap[:1] = start
    gap[1:] = values[:-1]
    np.maximum.accumulate(gap, out=gap)
    np.subtract(values, gap, out=gap)
    keep = gap >= tol
    unsure = np.flatnonzero(~keep)
    if unsure.size:
        # last_sure[i]: the last index before i that the test above kept, or -1
        last_sure = np.where(keep, np.arange(values.size), -1)
        np.maximum.accumulate(last_sure, out=last_sure)
        last = -1
        for i in unsure.tolist():
            j = max(last, int(last_sure[i]))
            ref = values[j] if j >= 0 else start
            if not values[i] - ref < tol:
                keep[i] = True
                last = i
    return keep


def _midpoints(edges: np.ndarray) -> np.ndarray:
    return 0.5 * (edges[:-1] + edges[1:])


def _angle_index(t: StepLaminate, points: np.ndarray) -> np.ndarray:
    """Index of the interval of t holding each point of [-1, 1); a point on
    a breakpoint belongs to the interval to its right."""
    import numpy as np
    bps = np.fromiter(t.breakpoints, np.float64, len(t.breakpoints))
    return np.searchsorted(bps, points, side="right") - 1


def _angles_at(t: StepLaminate, points: np.ndarray) -> tuple[float, ...]:
    """t's angle at each point (see `_angle_index`): the float objects of
    t.angles themselves, not copies."""
    import numpy as np
    return tuple(np.array(t.angles, dtype=object)[_angle_index(t, points)])


def normalize_breakpoints(raw: Sequence[float]) -> tuple[float, ...]:
    """Affinely map an increasing coordinate sequence onto [-1, 1].

    The endpoints map exactly to -1.0 and 1.0; interior points map to
    2*(z - z_min)/(z_max - z_min) - 1.

    Raises:
        DegenerateInterval: if the span is empty (first >= last).
        InvariantViolation: if the input is too short or not increasing.
    """
    if len(raw) < 2:
        raise InvariantViolation("need at least two coordinates", field="breakpoints")
    lo, hi = float(raw[0]), float(raw[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise DegenerateInterval(f"cannot normalize span ({lo}, {hi})")
    for i in range(len(raw) - 1):
        if not raw[i] < raw[i + 1]:
            raise InvariantViolation(
                f"coordinates not strictly increasing at index {i + 1}",
                field="breakpoints", index=i + 1)
    span = hi - lo
    mapped = [-1.0]
    mapped.extend(2.0 * (float(z) - lo) / span - 1.0 for z in raw[1:-1])
    mapped.append(1.0)
    return tuple(mapped)

