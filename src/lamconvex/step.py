"""Step-function layups on the normalized thickness coordinate [-1, 1].

A laminate is modelled as a piecewise-constant angle function: an ordered
breakpoint sequence from -1 to 1 and one angle (radians) per interval.
Values exactly at breakpoints are deliberately undefined; they carry no
measure and every downstream quantity is an integral.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Sequence
from itertools import compress, islice
from operator import lt, ne

from ._record import Record
from .errors import InvariantViolation, UndefinedAtBreakpoint


class StepLaminate(Record):
    """Piecewise-constant layup-angle function on [-1, 1].

    breakpoints: strictly increasing, first exactly -1.0, last exactly 1.0.
    angles: one value per interval, radians.

    Instances are immutable and safe to share between threads. Every
    construction, unpickling included, runs `__post_init__`, which
    validates the fields and stores them as tuples of floats.
    """

    __slots__ = ("breakpoints", "angles")
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
        """Angle at interior point x, compared with the breakpoints
        exactly (a Fraction x is not rounded to a float).

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
        """Assemble from pieces starting at -1: `pieces` gives, in order,
        each piece's (right edge, angle). It is read once, so a generator
        or a `zip` of two sequences will do, and only the kept edges and
        angles are held. The last right edge must be exactly 1.

        A piece whose right edge is not above every earlier edge (and -1) is
        dropped: it is empty, or its split points or part edges crossed in
        floating point (a NaN edge raises). No other piece is dropped,
        however thin. Then each run of adjacent pieces whose angles compare
        equal (`==`) becomes one piece, with the run's first angle and last
        right edge; no measure moves. The angles kept are the objects of
        `pieces`.
        """
        # prev and last: the angle and the right edge kept last; skipped:
        # the pieces dropped or merged, which with the kept ones count the
        # pieces read
        edges, kept, prev, last, skipped = [-1.0], [], None, -1.0, 0
        right = -1.0
        for right, angle in pieces:
            if right > last:
                if angle == prev:
                    edges[-1] = right
                    skipped += 1
                else:
                    edges.append(right)
                    kept.append(angle)
                    prev = angle
                last = right
            elif right == right:
                skipped += 1
            else:
                i = len(kept) + skipped
                raise InvariantViolation(f"piece {i} ends at {right}",
                                         field="breakpoints", index=i)
        if right != 1.0:
            count = len(kept) + skipped
            raise InvariantViolation(f"pieces end at {float(right)}, expected 1.0",
                                     field="breakpoints", index=count - 1 if count else None)
        breakpoints = tuple(edges)
        del edges  # freed before the angles tuple is built
        return cls(breakpoints, tuple(kept))


class RefinedPair(Record):
    """Two laminates expressed on their common breakpoint refinement."""

    __slots__ = ("breakpoints", "angles1", "angles2")
    breakpoints: tuple[float, ...]
    angles1: tuple[float, ...]
    angles2: tuple[float, ...]


def merge_close(sorted_values: Sequence[float]) -> list[float]:
    """The distinct values of a sorted sequence: of each run of equal
    values the first is kept. Input must be finite and sorted ascending.
    The output holds the input's own objects.
    """
    keep = map(ne, islice(sorted_values, 1, None), sorted_values)
    return [sorted_values[0], *compress(islice(sorted_values, 1, None), keep)]


def refine(t1: StepLaminate, t2: StepLaminate) -> RefinedPair:
    """Common refinement: the union of both breakpoint sets, with each
    input's constant value recorded per refinement interval.

    Breakpoints merge only when equal, so every breakpoint of either input
    is a refinement breakpoint, and each interval takes each input's angle
    at its left edge, exactly: the float objects of the inputs' angles.
    Each input's angle index is one pointer walked along the refinement's
    right edges: an edge that compares equal (`==`, so 0.0 meets -0.0) to
    the input's next breakpoint moves it on to the next ply, never past
    the last. Every interior input breakpoint is a right edge, so the
    pointer skips none.
    """
    bps = merge_close(sorted(t1.breakpoints + t2.breakpoints))
    return RefinedPair(tuple(bps), *(_left_edge_angles(t, islice(bps, 1, None))
                                     for t in (t1, t2)))


def _left_edge_angles(t: StepLaminate, rights: Iterable[float]) -> tuple[float, ...]:
    """t's angle on each interval of a refinement of t given by its right
    edges in order: the pointer walk of `refine`."""
    angles, k, out = t.angles, 0, []
    # end: the breakpoint at which the pointer next moves; after the last
    # interior one it is NaN, which no edge equals
    ends = iter((*t.breakpoints[1:-1], math.nan))
    end = next(ends)
    for right in rights:
        out.append(angles[k])
        if right == end:
            k += 1
            end = next(ends)
    return tuple(out)


def _float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    """values as a tuple of floats; a tuple of floats is returned as is."""
    if type(values) is tuple and set(map(type, values)) <= {float}:
        return values
    return tuple(map(float, values))

