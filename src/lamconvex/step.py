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
from itertools import compress, islice
from operator import lt
from typing import Iterable, Sequence

from .errors import DegenerateInterval, InvariantViolation, UndefinedAtBreakpoint


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
    def from_pieces(cls, rights: np.ndarray, angles: np.ndarray) -> "StepLaminate":
        """Assemble from pieces starting at -1: piece i ends at rights[i]
        (a float array) and carries angles[i] (an object array, or any
        sequence of the same length). The last right edge must be exactly 1.

        A piece whose right edge is not above every earlier edge (and -1) is
        dropped: it is empty, or its split points crossed in floating point.
        No other piece is dropped, however thin. Then each run of adjacent
        pieces whose angles compare equal (`==`) becomes one piece, with
        the run's first angle and last right edge; no measure moves. The
        angles kept are the objects of `angles` themselves.
        """
        import numpy as np
        rights = np.asarray(rights, dtype=np.float64)
        last_right = float(rights[-1]) if rights.size else -1.0
        if last_right != 1.0:
            raise InvariantViolation(f"pieces end at {last_right}, expected 1.0",
                                     field="breakpoints")
        angles = np.asarray(angles, dtype=object)
        if angles.shape != rights.shape:
            raise InvariantViolation(f"{angles.size} angles for {rights.size} pieces",
                                     field="angles")
        keep = _kept(rights, -1.0)
        rights, angles = rights[keep], angles[keep]
        first = np.ones(angles.size, dtype=bool)  # piece starts a run of equal angles
        first[1:] = angles[1:] != angles[:-1]
        last = np.append(first[1:], True)
        return cls((-1.0, *rights[last].tolist()), tuple(angles[first]))


@dataclass(frozen=True)
class RefinedPair:
    """Two laminates expressed on their common breakpoint refinement."""

    breakpoints: tuple[float, ...]
    angles1: tuple[float, ...]
    angles2: tuple[float, ...]


def merge_close(sorted_values: Sequence[float]) -> list[float]:
    """The distinct values of a sorted sequence: of each run of equal
    values the first is kept. Input must be finite and sorted ascending.
    The output holds the input's own objects.
    """
    import numpy as np
    values = np.asarray(sorted_values, dtype=np.float64)
    keep = _kept(values[1:], values[0]).tolist()
    return [sorted_values[0], *compress(islice(sorted_values, 1, None), keep)]


def refine(t1: StepLaminate, t2: StepLaminate) -> RefinedPair:
    """Common refinement: the union of both breakpoint sets, with each
    input's constant value recorded per refinement interval.

    Breakpoints merge only when equal, so every breakpoint of either input
    is a refinement breakpoint, and each interval takes each input's angle
    at its left edge, exactly.
    """
    import numpy as np
    bps = merge_close(sorted(t1.breakpoints + t2.breakpoints))
    lefts = np.array(bps[:-1])
    return RefinedPair(tuple(bps), _angles_at(t1, lefts), _angles_at(t2, lefts))


def _float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    """values as a tuple of floats; a tuple of floats is returned as is."""
    if type(values) is tuple and set(map(type, values)) <= {float}:
        return values
    return tuple(map(float, values))


def _kept(values: np.ndarray, start: float) -> np.ndarray:
    """Mask of the values above `start` and above every value before them."""
    import numpy as np
    before = np.empty_like(values)
    before[:1] = start
    before[1:] = values[:-1]
    np.maximum.accumulate(before, out=before)
    return values > before


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

