import bisect
import math
import random
import sys
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lamconvex import (
    InvariantViolation,
    ParseError,
    StepLaminate,
    laminate_from_dict,
    lamination_parameters,
)
from lamconvex.step import merge_close, refine

from _helpers import (
    close_laminates,
    exact_moments,
    float_laminates,
    laminates,
    midpoint_moments,
    ply_laminate,
    random_laminate,
)


def array_validation(breakpoints, angles):
    """The message of the first entry check that StepLaminate failed when
    it validated on numpy arrays, or None if all pass: the reference for
    the plain-Python checks. Lengths are assumed valid."""
    bps = tuple(map(float, breakpoints))
    angs = tuple(map(float, angles))

    def first_false(mask):
        i = int(np.argmin(mask))
        return None if mask[i] else i

    i = first_false(np.isfinite(np.array(bps)))
    if i is not None:
        return f"breakpoints[{i}] = {bps[i]} is not finite"
    i = first_false(np.isfinite(np.array(angs)))
    if i is not None:
        return f"angles[{i}] = {angs[i]} is not finite"
    b = np.array(bps)
    i = first_false(b[:-1] < b[1:])
    if i is not None:
        return f"breakpoints[{i}] = {bps[i]} not below breakpoints[{i + 1}] = {bps[i + 1]}"
    if bps[0] != -1.0:
        return f"first breakpoint must be -1, got {bps[0]}"
    if bps[-1] != 1.0:
        return f"last breakpoint must be 1, got {bps[-1]}"
    return None


@st.composite
def one_bad_entry(draw):
    """(breakpoints, angles) of a laminate with at most one bad entry at a
    random position: a NaN or infinite value, an equal or descending
    breakpoint, or a wrong end. Each entry is a float, an np.float64 or,
    where the value is integral, an int; the containers are lists or tuples."""
    plies = draw(st.integers(min_value=1, max_value=12))
    interior = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0,
                                       exclude_min=True, exclude_max=True),
                             min_size=plies - 1, max_size=plies - 1, unique=True))
    bps = [-1.0, *sorted(interior), 1.0]
    angles = draw(st.lists(st.one_of(st.floats(min_value=-4.0, max_value=4.0),
                                     st.integers(min_value=-3, max_value=3)),
                           min_size=plies, max_size=plies))
    kind = draw(st.sampled_from(["none", "nan", "inf", "-inf", "equal", "descending",
                                 "first", "last"]))
    if kind in ("nan", "inf", "-inf"):
        values = draw(st.sampled_from([bps, angles]))
        values[draw(st.integers(min_value=0, max_value=len(values) - 1))] = float(kind)
    elif kind in ("equal", "descending"):
        i = draw(st.integers(min_value=1, max_value=len(bps) - 1))
        drop = 0.0 if kind == "equal" else draw(st.floats(min_value=0.0, max_value=1.0))
        bps[i] = bps[i - 1] - drop
    elif kind == "first":
        bps[0] = draw(st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: v != -1.0))
    elif kind == "last":
        bps[-1] = draw(st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: v != 1.0))

    def typed(values):
        out = []
        for v in values:
            cast = draw(st.sampled_from([float, np.float64, int]))
            out.append(cast(v) if cast is not int or float(v).is_integer() else v)
        return draw(st.sampled_from([list, tuple]))(out)

    return typed(bps), typed(angles)


class TestMoments:
    """The closed-form moments: the exact oracle `exact_moments`, the
    kernel's float evaluation of them, and the interval checks."""

    def test_symmetric_interval(self):
        assert exact_moments(-1.0, 1.0) == (2, 0, Fraction(2, 3))

    def test_unit_interval(self):
        assert exact_moments(0.0, 1.0) == (1, Fraction(1, 2), Fraction(1, 3))

    def test_quarter_to_three_quarter(self):
        # Antiderivative values, cross-checked against the midpoint rule.
        m = exact_moments(0.25, 0.75)
        assert m == (Fraction(1, 2), Fraction(1, 4), Fraction(13, 96))
        for value, sampled in zip(m, midpoint_moments(0.25, 0.75, 10**6)):
            assert sampled == pytest.approx(float(value), abs=1e-12)

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (0.5, -0.5), (0.0, math.inf), (math.nan, 1.0)])
    def test_rejects_degenerate(self, lo, hi):
        # an empty or reversed span fails the order check; a non-finite
        # end is no number a laminate file may hold
        i = next((i for i, v in enumerate((lo, hi)) if not math.isfinite(v)), None)
        error, message = (
            (InvariantViolation, "coordinates not strictly increasing at index 1") if i is None
            else (ParseError, f"'breakpoints[{i}]' is not a finite number: {(lo, hi)[i]}"))
        with pytest.raises(error) as info:
            normalized((lo, hi))
        assert str(info.value) == message

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_additivity(self, x, y, z):
        a, m, b = sorted((x, y, z))
        left = exact_moments(a, m)
        right = exact_moments(m, b)
        assert tuple(map(add, left, right)) == exact_moments(a, b)

    @given(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_matches_scalar_formula(self, x, y):
        # the kernel keeps the float operations of the scalar
        # width-proportional form, bit for bit: on (lo, hi) at 45 degrees
        # between two 0-degree plies, sin 2a is exactly 1 there and 0
        # elsewhere, so each sin 2a parameter is its prefactor times one
        # moment of (lo, hi)
        assume(x != y)
        lo, hi = sorted((x, y))
        w = hi - lo
        want = (w, w * (hi + lo) / 2.0, w * (hi * hi + hi * lo + lo * lo) / 3.0)
        p = lamination_parameters(StepLaminate((-1.0, lo, hi, 1.0), (0.0, math.pi / 4, 0.0)))
        assert (p.xi_a[2], p.xi_b[2], p.xi_d[2]) == (0.5 * want[0], want[1], 1.5 * want[2])


class TestStepLaminate:
    def test_requires_unit_endpoints(self):
        with pytest.raises(InvariantViolation):
            StepLaminate((-0.9, 1.0), (0.0,))
        with pytest.raises(InvariantViolation):
            StepLaminate((-1.0, 0.9), (0.0,))

    def test_requires_matching_angle_count(self):
        with pytest.raises(InvariantViolation):
            StepLaminate((-1.0, 1.0), (0.0, 1.0))

    def test_requires_increasing_breakpoints(self):
        with pytest.raises(InvariantViolation):
            StepLaminate((-1.0, 0.5, 0.5, 1.0), (0.0, 1.0, 2.0))

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantViolation):
            StepLaminate((-1.0, math.nan, 1.0), (0.0, 1.0))
        with pytest.raises(InvariantViolation):
            StepLaminate((-1.0, 1.0), (math.inf,))

    def test_stores_plain_float_tuples(self):
        t = StepLaminate([-1, np.float64(0.5), 1], (0, 0.25))
        assert t.breakpoints == (-1.0, 0.5, 1.0)
        assert {type(v) for v in t.breakpoints + t.angles} == {float}
        floats = (-1.0, 0.5, 1.0)
        assert StepLaminate(floats, (0.0, 0.25)).breakpoints is floats

    # each id names the offending field and index, which the message holds
    @pytest.mark.parametrize("bps,angles,message", [
        pytest.param((1.0,), (), "need at least two breakpoints",
                     id="bps0-angles0-breakpoints-None-need at least two breakpoints"),
        pytest.param((-1.0, 1.0), (0.0, 1.0), "2 angles for 2 breakpoints (expected 1)",
                     id="bps1-angles1-angles-None-2 angles for 2 breakpoints (expected 1)"),
        pytest.param((-math.inf, 0.0, 1.0), (0.0, 1.0), "breakpoints[0] = -inf is not finite",
                     id="bps2-angles2-breakpoints-0-breakpoints[0] = -inf is not finite"),
        pytest.param((-1.0, 0.5, math.nan, 0.2, math.inf), (0.0,) * 4,
                     "breakpoints[2] = nan is not finite",
                     id="bps3-angles3-breakpoints-2-breakpoints[2] = nan is not finite"),
        pytest.param((-1.0, 0.5, 0.2, 1.0), (0.0, math.nan, math.inf),
                     "angles[1] = nan is not finite",
                     id="bps4-angles4-angles-1-angles[1] = nan is not finite"),
        pytest.param((-1.0, 0.5, 0.5, 1.0), (0.0, 1.0, 2.0),
                     "breakpoints[1] = 0.5 not below breakpoints[2] = 0.5",
                     id="bps5-angles5-breakpoints-2-breakpoints[1] = 0.5 not below"
                        " breakpoints[2] = 0.5"),
        pytest.param((-1.0, 0.5, 0.2, 0.1, 1.0), (0.0,) * 4,
                     "breakpoints[1] = 0.5 not below breakpoints[2] = 0.2",
                     id="bps6-angles6-breakpoints-2-breakpoints[1] = 0.5 not below"
                        " breakpoints[2] = 0.2"),
        pytest.param((-0.9, 1.0), (0.0,), "first breakpoint must be -1, got -0.9",
                     id="bps7-angles7-breakpoints-0-first breakpoint must be -1, got -0.9"),
        pytest.param((-1.0, 0.0, 0.9), (0.0, 1.0), "last breakpoint must be 1, got 0.9",
                     id="bps8-angles8-breakpoints-2-last breakpoint must be 1, got 0.9"),
    ])
    def test_reports_first_offending_entry(self, bps, angles, message):
        with pytest.raises(InvariantViolation) as info:
            StepLaminate(bps, angles)
        assert str(info.value) == message

    @settings(max_examples=400)
    @given(one_bad_entry())
    def test_validation_matches_array_checks(self, entries):
        bps, angles = entries
        try:
            StepLaminate(bps, angles)
        except InvariantViolation as exc:
            found = str(exc)
        else:
            found = None
        assert found == array_validation(bps, angles)

    def test_value_at_interior(self):
        t = StepLaminate((-1.0, 0.0, 1.0), (0.5, 1.5))
        assert t.value_at(-0.3) == 0.5
        assert t.value_at(0.3) == 1.5

    def test_value_at_breakpoint_is_none(self):
        t = StepLaminate((-1.0, 0.0, 1.0), (0.5, 1.5))
        for x in (-1.0, 0.0, 1.0, Fraction(0)):
            assert t.value_at(x) is None

    def test_value_outside_domain(self):
        t = StepLaminate((-1.0, 1.0), (0.0,))
        with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
            t.value_at(1.5)

    def test_from_pieces_drops_leading_sliver(self):
        # a split point that collapsed onto -1 leaves a zero-width piece
        t = StepLaminate.from_pieces(zip(np.array([-1.0, 0.5, 1.0]), [0.3, 0.7, 0.9]))
        assert t.breakpoints == (-1.0, 0.5, 1.0)
        assert t.angles == (0.7, 0.9)

    def test_from_pieces_drops_trailing_sliver(self):
        # a split point that collapsed onto 1 leaves a zero-width last piece
        t = StepLaminate.from_pieces(zip(np.array([0.5, 1.0, 1.0]), [0.1, 0.2, 0.3]))
        assert t.breakpoints == (-1.0, 0.5, 1.0)
        assert t.angles == (0.1, 0.2)

    def test_from_pieces_requires_exact_end(self):
        with pytest.raises(InvariantViolation) as info:
            StepLaminate.from_pieces(zip(np.array([0.5, 1.0 - 5e-13]), [0.1, 0.2]))
        assert str(info.value) == "pieces end at 0.9999999999995, expected 1.0"

    def test_from_pieces_requires_full_cover(self):
        with pytest.raises(InvariantViolation):
            StepLaminate.from_pieces(zip(np.array([0.0]), [0.3]))

    def test_from_pieces_rejects_nan_end(self):
        # a NaN right edge, last or inside, is never dropped as a collapsed piece
        for rights in ([0.5, math.nan], [0.5, math.nan, 0.75, 1.0]):
            with pytest.raises(InvariantViolation) as info:
                StepLaminate.from_pieces(zip(np.array(rights), [0.1, 0.2, 0.3, 0.4]))
            assert str(info.value) == "piece 1 ends at nan"

    def test_from_pieces_two_slivers_in_a_row(self):
        # pieces 5e-13, 0.6e-12 and one float step wide are all kept, at
        # either end and one after another
        rights = [-1.0 + 5e-13, 0.0, 0.6e-12, 1.2e-12, math.nextafter(1.2e-12, 1.0),
                  1.0 - 5e-13, 1.0]
        angles = [0.1 * k for k in range(len(rights))]
        t = StepLaminate.from_pieces(zip(np.array(rights), angles))
        assert t.breakpoints == (-1.0, *rights)
        assert t.angles == tuple(angles)

    @given(st.lists(st.sampled_from([-0.3, -0.7e-12, 0.0, 0.4e-12, 0.9e-12, 1.1e-12, 0.25]),
                    max_size=14))
    def test_from_pieces_matches_loop_reference(self, steps):
        # rights that cluster, repeat and step back, then a last piece at 1
        rights = [-0.5 + sum(steps[:i + 1]) for i in range(len(steps))] + [1.0]
        pieces = [(r, float(i)) for i, r in enumerate(rights)]
        edges, angles = [-1.0], []
        for right, angle in pieces:
            if right > edges[-1]:
                edges.append(right)
                angles.append(angle)

        def outcome(build):
            try:
                t = build()
            except InvariantViolation as exc:
                return str(exc)
            return t.breakpoints, t.angles

        piece_angles = np.array([angle for _, angle in pieces], dtype=object)
        assert outcome(lambda: StepLaminate.from_pieces(zip(np.array(rights), piece_angles))) == \
            outcome(lambda: StepLaminate(tuple(edges), tuple(angles)))

    def test_from_pieces_empty(self):
        with pytest.raises(InvariantViolation, match="pieces end at -1.0"):
            StepLaminate.from_pieces(zip(np.empty(0), []))

    def test_from_pieces_reads_a_one_shot_generator(self):
        # the pieces are read once, in order, as they are made
        read = []

        def pieces():
            for right, angle in ((-1.0, 0.1), (0.0, 0.2), (0.5, 0.2), (1.0, 0.3)):
                read.append(right)
                yield right, angle

        t = StepLaminate.from_pieces(pieces())
        assert read == [-1.0, 0.0, 0.5, 1.0]
        assert t.breakpoints == (-1.0, 0.5, 1.0)
        assert t.angles == (0.2, 0.3)

    def test_from_pieces_end_error_counts_every_piece_read(self):
        # a NaN edge is named by its place among the pieces read, dropped
        # and merged ones included: piece 1 is dropped, 2 and 3 merge into 0
        pieces = [(0.0, 0.1), (0.0, 0.2), (0.5, 0.1), (0.75, 0.1), (math.nan, 0.3)]
        with pytest.raises(InvariantViolation) as info:
            StepLaminate.from_pieces(iter(pieces))
        assert str(info.value) == "piece 4 ends at nan"

    def test_from_pieces_merges_equal_neighbours_after_dropping(self):
        # the collapsed second piece stands between two pieces of angle 0.2;
        # once it is dropped they merge, and the run keeps its first angle
        # object. 0.0 and -0.0 compare equal and merge too; a 0.0 after a
        # different angle starts a new piece.
        first, second = float("0.2"), float("0.2")
        assert first is not second
        rights = [-0.5, -0.5, 0.0, 0.5, 0.75, 0.9, 1.0]
        angles = [first, 0.7, second, 0.0, -0.0, 0.3, 0.0]
        t = StepLaminate.from_pieces(zip(np.array(rights), np.array(angles, dtype=object)))
        assert t.breakpoints == (-1.0, 0.0, 0.75, 0.9, 1.0)
        assert t.angles == (0.2, 0.0, 0.3, 0.0)
        assert t.angles[0] is first
        assert math.copysign(1.0, t.angles[1]) == 1.0

    def test_from_pieces_keeps_angle_objects(self):
        angle = math.pi / 7
        angles = np.array([angle, 0.5], dtype=object)
        t = StepLaminate.from_pieces(zip(np.array([0.0, 1.0]), angles))
        assert t.angles[0] is angle


class TestRefine:
    def test_identical_partitions(self):
        t1 = StepLaminate((-1.0, 1.0), (0.1,))
        t2 = StepLaminate((-1.0, 1.0), (0.2,))
        rp = refine(t1, t2)
        assert rp.breakpoints == (-1.0, 1.0)
        assert rp.angles1 == (0.1,)
        assert rp.angles2 == (0.2,)

    def test_union_of_partitions(self):
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.1, 0.2))
        t2 = StepLaminate((-1.0, 0.5, 1.0), (0.3, 0.4))
        rp = refine(t1, t2)
        assert rp.breakpoints == (-1.0, 0.0, 0.5, 1.0)
        assert rp.angles1 == (0.1, 0.2, 0.2)
        assert rp.angles2 == (0.3, 0.3, 0.4)

    def test_constants_restricted(self):
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, math.pi / 4))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 2,))
        rp = refine(t1, t2)
        assert rp.breakpoints == (-1.0, 0.0, 1.0)
        assert rp.angles1 == (0.0, math.pi / 4)
        assert rp.angles2 == (math.pi / 2, math.pi / 2)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(25):
            rp = refine(random_laminate(rng), random_laminate(rng))
            again = refine(StepLaminate(rp.breakpoints, rp.angles1),
                           StepLaminate(rp.breakpoints, rp.angles2))
            assert again.breakpoints == rp.breakpoints
            assert again.angles1 == rp.angles1
            assert again.angles2 == rp.angles2

    def test_preserves_values_exactly(self):
        rng = random.Random(23)
        t1 = random_laminate(rng, max_plies=6)
        t2 = random_laminate(rng, max_plies=6)
        rp = refine(t1, t2)
        r1 = StepLaminate(rp.breakpoints, rp.angles1)
        r2 = StepLaminate(rp.breakpoints, rp.angles2)
        checked = 0
        while checked < 1000:
            x = rng.uniform(-1.0, 1.0)
            if min(abs(x - b) for b in rp.breakpoints) < 1e-9:
                continue
            assert r1.value_at(x) == t1.value_at(x)
            assert r2.value_at(x) == t2.value_at(x)
            checked += 1

    def test_keeps_near_coincident_breakpoints(self):
        t1 = StepLaminate((-1.0, 0.5, 1.0), (0.1, 0.2))
        t2 = StepLaminate((-1.0, 0.5 + 1e-13, 1.0), (0.3, 0.4))
        rp = refine(t1, t2)
        assert rp.breakpoints == (-1.0, 0.5, 0.5 + 1e-13, 1.0)
        assert rp.angles1 == (0.1, 0.2, 0.2)
        assert rp.angles2 == (0.3, 0.3, 0.4)

    def test_one_float_step_interval(self):
        # (0.3, nextafter(0.3)) has no float inside it; each input's angle
        # is looked up at the left edge
        x = math.nextafter(0.3, 1.0)
        t1 = StepLaminate((-1.0, 0.3, 1.0), (0.1, 0.2))
        t2 = StepLaminate((-1.0, x, 1.0), (0.3, 0.4))
        rp = refine(t1, t2)
        assert rp.breakpoints == (-1.0, 0.3, x, 1.0)
        assert rp.angles1 == (0.1, 0.2, 0.2)
        assert rp.angles2 == (0.3, 0.3, 0.4)

    def test_long_inputs_with_shared_breakpoints(self):
        # two 2,000-ply inputs sharing about half their breakpoints, one of
        # them 0.0 in t1 and -0.0 in t2, against a bisect at each left edge
        rng = random.Random(2000)
        t1, t2 = ply_laminate(rng, 2000), ply_laminate(rng, 2000)
        b1 = list(t1.breakpoints)
        nearest = min(range(1, len(b1) - 1), key=lambda i: abs(b1[i]))
        b1[nearest] = 0.0
        shared = rng.sample(b1[1:nearest] + b1[nearest + 1:-1], 999)
        own = rng.sample(t2.breakpoints[1:-1], 999)
        t1 = StepLaminate(b1, t1.angles)
        t2 = StepLaminate((-1.0, *sorted([*shared, *own, -0.0]), 1.0), t2.angles)
        assert t1.ply_count == t2.ply_count == 2000
        rp = refine(t1, t2)
        union = sorted(t1.breakpoints + t2.breakpoints)
        bps = [union[0]]
        for v in union[1:]:
            if v > bps[-1]:
                bps.append(v)
        assert len(bps) == 3000  # 2001 + 2001 less the 1002 shared
        assert [b.hex() for b in rp.breakpoints] == [b.hex() for b in bps]
        for t, got in ((t1, rp.angles1), (t2, rp.angles2)):
            assert len(got) == len(bps) - 1
            for lo, angle in zip(bps, got):
                assert angle is t.angles[bisect.bisect_right(t.breakpoints, lo) - 1]

    @given(st.one_of(close_laminates(), float_laminates()),
           st.one_of(close_laminates(), float_laminates()))
    def test_matches_loop_reference(self, t1, t2):
        union = sorted(t1.breakpoints + t2.breakpoints)
        bps = [union[0]]
        for v in union[1:]:
            if v > bps[-1]:
                bps.append(v)
        rp = refine(t1, t2)
        assert [b.hex() for b in rp.breakpoints] == [b.hex() for b in bps]
        for lo, hi, ang1, ang2 in zip(bps, bps[1:], rp.angles1, rp.angles2):
            mid = 0.5 * (lo + hi)
            if lo < mid < hi:  # an interval one float step wide has no inside
                assert (ang1, ang2) == (t1.value_at(mid), t2.value_at(mid))


class TestMergeClose:
    def test_keeps_distinct_values(self):
        close = math.nextafter(1.2e-12, 1.0)
        assert merge_close([0.0, 0.6e-12, 0.6e-12, 1.2e-12, close, 1.0, 1.0]) == \
            [0.0, 0.6e-12, 1.2e-12, close, 1.0]

    def test_long_run_of_close_values(self):
        values = [k * 0.3e-12 for k in range(20)]
        assert merge_close(values) == values

    def test_keeps_first_object_of_a_run(self):
        first, second = 0.25, float("0.25")
        assert first is not second
        out = merge_close([0.0, first, second, 1.0])
        assert out[1] is first

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_matches_set_of_values(self, values):
        assert merge_close(sorted(values)) == sorted(set(values))


def normalized(raw):
    """The breakpoints of a laminate file with coordinates `raw`, loaded
    with normalize=True."""
    data = {"breakpoints": list(raw), "angles_deg": [0.0] * (len(raw) - 1)}
    return laminate_from_dict(data, normalize=True).breakpoints


class TestNormalize:
    def test_identity(self):
        assert normalized((-1.0, 1.0)) == (-1.0, 1.0)

    def test_shift_and_scale(self):
        assert normalized((0.0, 2.0)) == (-1.0, 1.0)

    def test_three_points(self):
        assert normalized((0.0, 1.0, 4.0)) == (-1.0, -0.5, 1.0)

    def test_rejects_empty_span(self):
        with pytest.raises(InvariantViolation,
                           match="^coordinates not strictly increasing at index 1$"):
            normalized((2.0, 2.0))

    def test_rejects_unsorted(self):
        with pytest.raises(InvariantViolation,
                           match="^coordinates not strictly increasing at index 2$"):
            normalized((0.0, 3.0, 1.0, 4.0))

    @pytest.mark.parametrize("raw,middle", [
        ((-1e308, 0.0, 1e308), 0.0),
        ((-1.5e308, 0.0, 5e307), 0.5),
        ((-sys.float_info.max, 0.0, sys.float_info.max), 0.0),
        ((-1e308, 5e307, 6e307), 0.875),
    ])
    def test_maps_a_span_beyond_the_float_range(self, raw, middle):
        # hi - lo, or in the last case twice z - lo, overflows though
        # every coordinate is finite
        got = normalized(raw)
        assert got[0] == -1.0 and got[2] == 1.0
        assert got[1] == pytest.approx(middle, abs=1e-15)

    @given(laminates())
    def test_maps_endpoints_exactly(self, t):
        scaled = tuple(3.0 * b + 7.0 for b in t.breakpoints)
        mapped = normalized(scaled)
        assert mapped[0] == -1.0 and mapped[-1] == 1.0
        for got, want in zip(mapped, t.breakpoints):
            assert got == pytest.approx(want, abs=1e-12)
