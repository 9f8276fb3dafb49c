"""Step-function layups on the normalized thickness coordinate [-1, 1].

A laminate is modelled as a piecewise-constant angle function: an ordered
breakpoint sequence from -1 to 1 and one angle (radians) per interval.
Values exactly at breakpoints are deliberately undefined; they carry no
measure and every downstream quantity is an integral.
"""

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateInterval, InvariantViolation, UndefinedAtBreakpoint

# Breakpoints closer than this are considered coincident and merged
# (the smaller value is kept).
BREAKPOINT_MERGE_TOL = 1e-12

# Adjacent intervals whose angles differ by less than this merge under
# simplify().
ANGLE_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class MomentTriple:
    """Values of integral(z^j dz), j = 0, 1, 2, over a set of intervals."""

    m0: float
    m1: float
    m2: float

    def __add__(self, other: "MomentTriple") -> "MomentTriple":
        return MomentTriple(self.m0 + other.m0, self.m1 + other.m1, self.m2 + other.m2)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.m0, self.m1, self.m2)


def moments(lo: float, hi: float) -> MomentTriple:
    """Exact interval moments (hi-lo, (hi^2-lo^2)/2, (hi^3-lo^3)/3).

    Raises:
        DegenerateInterval: if lo >= hi or either endpoint is not finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DegenerateInterval(f"non-finite interval ({lo}, {hi})")
    if lo >= hi:
        raise DegenerateInterval(f"empty interval ({lo}, {hi})")
    return MomentTriple(
        hi - lo,
        (hi * hi - lo * lo) / 2.0,
        (hi * hi * hi - lo * lo * lo) / 3.0,
    )


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
        bps = tuple(float(b) for b in self.breakpoints)
        angs = tuple(float(a) for a in self.angles)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "angles", angs)
        if len(bps) < 2:
            raise InvariantViolation("need at least two breakpoints", field="breakpoints")
        if len(angs) != len(bps) - 1:
            raise InvariantViolation(
                f"{len(angs)} angles for {len(bps)} breakpoints (expected {len(bps) - 1})",
                field="angles",
            )
        for i, b in enumerate(bps):
            if not math.isfinite(b):
                raise InvariantViolation(f"breakpoints[{i}] = {b} is not finite",
                                         field="breakpoints", index=i)
        for i, a in enumerate(angs):
            if not math.isfinite(a):
                raise InvariantViolation(f"angles[{i}] = {a} is not finite",
                                         field="angles", index=i)
        for i in range(len(bps) - 1):
            if not bps[i] < bps[i + 1]:
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

    def intervals(self) -> Iterator[tuple[float, float, float]]:
        """Yield (lo, hi, angle) for every interval, in order."""
        for i, angle in enumerate(self.angles):
            yield self.breakpoints[i], self.breakpoints[i + 1], angle

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

    def mirrored(self) -> "StepLaminate":
        """The laminate reflected through z = 0 (reverses the stacking)."""
        bps = tuple(-b for b in reversed(self.breakpoints))
        return StepLaminate(bps, tuple(reversed(self.angles)))

    @classmethod
    def from_pieces(cls, pieces: Iterable[tuple[float, float]]) -> "StepLaminate":
        """Assemble from (right_edge, angle) pieces starting at -1.

        Pieces narrower than BREAKPOINT_MERGE_TOL are dropped; their sliver
        of thickness is absorbed by the neighbouring piece. The final right
        edge must be 1 (within tolerance) and is snapped to exactly 1.0.
        """
        edges = [-1.0]
        angles: list[float] = []
        last_right = -1.0
        for right, angle in pieces:
            last_right = right
            if right - edges[-1] < BREAKPOINT_MERGE_TOL:
                continue
            edges.append(right)
            angles.append(angle)
        if abs(last_right - 1.0) > BREAKPOINT_MERGE_TOL:
            raise InvariantViolation(f"pieces end at {last_right}, expected 1.0",
                                     field="breakpoints")
        if not angles:
            raise InvariantViolation("no piece wider than the merge tolerance",
                                     field="angles")
        edges[-1] = 1.0
        return cls(tuple(edges), tuple(angles))


@dataclass(frozen=True)
class RefinedPair:
    """Two laminates expressed on their common breakpoint refinement."""

    breakpoints: tuple[float, ...]
    angles1: tuple[float, ...]
    angles2: tuple[float, ...]

    def first(self) -> StepLaminate:
        return StepLaminate(self.breakpoints, self.angles1)

    def second(self) -> StepLaminate:
        return StepLaminate(self.breakpoints, self.angles2)


def merge_close(sorted_values: Sequence[float],
                tol: float = BREAKPOINT_MERGE_TOL) -> list[float]:
    """Collapse runs of near-coincident values, keeping the smallest of
    each run. Input must be sorted ascending; the last kept value is
    snapped back to the overall maximum so interval ends survive merging.
    """
    out = [sorted_values[0]]
    for v in sorted_values[1:]:
        if v - out[-1] >= tol:
            out.append(v)
    out[-1] = sorted_values[-1]
    return out


def refine(t1: StepLaminate, t2: StepLaminate) -> RefinedPair:
    """Common refinement: the union of both breakpoint sets, with each
    input's constant value recorded per refinement interval.

    Breakpoints of the two inputs closer than BREAKPOINT_MERGE_TOL are
    merged (smaller kept).
    """
    union = sorted(t1.breakpoints + t2.breakpoints)
    bps = merge_close(union)
    angles1 = []
    angles2 = []
    for lo, hi in zip(bps, bps[1:]):
        mid = 0.5 * (lo + hi)
        angles1.append(t1.value_at(mid))
        angles2.append(t2.value_at(mid))
    return RefinedPair(tuple(bps), tuple(angles1), tuple(angles2))


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


def simplify(t: StepLaminate, angle_tol: float = ANGLE_MERGE_TOL) -> StepLaminate:
    """Merge adjacent intervals whose angles differ by less than angle_tol.

    Construction never merges automatically; callers opt in when they do
    not rely on the original partition.
    """
    edges = [t.breakpoints[0]]
    angles: list[float] = []
    for lo, hi, angle in t.intervals():
        if angles and abs(angle - angles[-1]) < angle_tol:
            edges[-1] = hi
        else:
            edges.append(hi)
            angles.append(angle)
    return StepLaminate(tuple(edges), tuple(angles))
