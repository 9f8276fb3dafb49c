import math
import random
import tracemalloc
from fractions import Fraction
from operator import add, ne

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lamconvex import (
    StepLaminate,
    blend,
    convex_combine,
    lamination_parameters,
    matched_split,
    refine,
    verify_combination,
)

from lamconvex import convexity

from _helpers import (
    close_laminates,
    combine_reference,
    exact_moments,
    exact_weighted_moments,
    float_laminates,
    laminates,
    max_param_diff,
    ply_laminate,
    quadrature_parameters,
    random_laminate,
)

def summed_moments(*intervals):
    """Componentwise exact sum of the moments of the (lo, hi) intervals."""
    return tuple(map(sum, zip(*(exact_moments(lo, hi) for lo, hi in intervals))))


def assert_matched(lo, hi, fraction, points, rel=1e-12):
    # exact moments of the float split points: the error is the split's
    # alone, not the float moments'
    b, c, d = points
    whole = exact_moments(lo, hi)
    matched = summed_moments((lo, b), (c, d))
    complement = summed_moments((b, c), (d, hi))
    for got, want in zip(matched, whole):
        assert abs(got - Fraction(fraction) * want) <= rel * max(1, abs(want))
    assert tuple(map(add, complement, matched)) == whole


class TestMatchedSplit:
    def test_symmetric_half(self):
        b, c, d = matched_split(-1.0, 1.0, 0.5)
        # E = (-1, -1/sqrt(2)) u (0, 1/sqrt(2)): measure 1, first moment 0,
        # second moment 1/3, half of each moment of (-1, 1)
        assert (b, c, d) == pytest.approx((-math.sqrt(0.5), 0.0, math.sqrt(0.5)), abs=1e-15)
        assert summed_moments((-1.0, b), (c, d)) == pytest.approx(
            (1.0, 0.0, 1.0 / 3.0), abs=1e-15)
        assert_matched(-1.0, 1.0, 0.5, (b, c, d))

    def test_unit_interval_half(self):
        points = matched_split(0.0, 1.0, 0.5)
        assert points == pytest.approx(
            (0.14644660940672627, 0.5, 0.8535533905932737), abs=1e-15)
        # affine equivariance: the same split mapped from (-1, 1) by
        # z -> (z + 1) / 2
        ref = matched_split(-1.0, 1.0, 0.5)
        for got, want in zip(points, ref):
            assert got == pytest.approx((want + 1) / 2, abs=1e-15)
        b, c, d = points
        assert summed_moments((0.0, b), (c, d)) == pytest.approx(
            (0.5, 0.25, 1.0 / 6.0), abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8, 1e-9])
    def test_tends_to_whole_interval(self, delta):
        # the complement (b, c) u (d, 1) shrinks to measure 2 * delta
        b, c, d = matched_split(-1.0, 1.0, 1.0 - delta)
        assert c - b < 5 * delta
        assert 1.0 - d < 5 * delta

    @pytest.mark.parametrize("fraction", [1e-9, 1e-16])
    def test_tends_to_empty_set(self, fraction):
        b, c, d = matched_split(-1.0, 1.0, fraction)
        assert b - -1.0 < 5 * fraction
        assert d - c < 5 * fraction

    def test_returns_floats_for_floats(self):
        assert {type(p) for p in matched_split(-0.25, 0.5, 0.3)} == {float}

    def test_combine_points_are_scalar_calls_bit_for_bit(self):
        # t1's angles lie in (0, 1) and t2's in (2, 3), so every refinement
        # interval is a region of its own, is split, and no piece drops:
        # the combination's breakpoints are matched_split(lo, hi, f) and hi
        # over the refinement, or, where the last piece so far carries
        # rest's angle, the mirror: matched_split(-hi, -lo, f) negated and
        # reversed, and hi; lo is gone where the region's first piece
        # merges with the last one before it
        rng = random.Random(11)

        def laminate(angle_lo):
            interior = sorted(rng.uniform(-1.0, 1.0) for _ in range(100))
            angles = [rng.uniform(angle_lo, angle_lo + 1.0) for _ in range(101)]
            return StepLaminate((-1.0, *interior, 1.0), angles)

        t1, t2 = laminate(0.0), laminate(2.0)
        rp = refine(t1, t2)
        edges = rp.breakpoints
        for alpha in (0.3, 0.7):
            fraction, matched, rest = ((alpha, rp.angles2, rp.angles1) if alpha < 0.5
                                       else (1.0 - alpha, rp.angles1, rp.angles2))
            want, prev, mirrored = [-1.0], None, 0
            for lo, hi, e, r in zip(edges, edges[1:], matched, rest):
                if prev in (e, r):
                    assert want.pop() == lo
                if r == prev:
                    want += [-p for p in reversed(matched_split(-hi, -lo, fraction))]
                    prev, mirrored = e, mirrored + 1
                else:
                    want += matched_split(lo, hi, fraction)
                    prev = r
                want.append(hi)
            assert 0 < mirrored < len(rest)
            got = convex_combine(t1, t2, alpha).breakpoints
            assert [p.hex() for p in got] == [p.hex() for p in want]

    def test_rejects_bad_fraction(self):
        for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(ValueError, match=r"fraction must lie in \(0, 1\)"):
                matched_split(-1.0, 1.0, bad)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError, match="cannot split interval"):
            matched_split(0.5, 0.5, 0.3)
        with pytest.raises(ValueError, match="cannot split interval"):
            matched_split(1.0, -1.0, 0.3)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="cannot split interval"):
                matched_split(bad, 1.0, 0.3)
            with pytest.raises(ValueError, match="cannot split interval"):
                matched_split(-1.0, bad, 0.3)

    def test_rejects_an_overflowing_span(self):
        # both ends are finite, but hi - lo is not
        with pytest.raises(ValueError, match="cannot split interval"):
            matched_split(-1e308, 1e308, 0.3)
        b, c, d = matched_split(-8e307, 8e307, 0.3)
        assert -8e307 < b < c < d < 8e307

    @settings(max_examples=300)
    @given(
        st.integers(min_value=-999, max_value=999),
        st.integers(min_value=-999, max_value=999),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_split_properties(self, ka, kb, fraction):
        if ka == kb:
            kb = ka + 1
        lo, hi = sorted((ka / 1000.0, kb / 1000.0))
        b, c, d = matched_split(lo, hi, fraction)
        assert lo < b < c < d < hi
        assert_matched(lo, hi, fraction, (b, c, d))


ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
EXTREME_ALPHAS = st.one_of(st.sampled_from([1e-16, 1e-9, 0.3, 1.0 - 1e-9]),
                           st.floats(min_value=0.0, max_value=1.0,
                                     exclude_min=True, exclude_max=True))

class TestConvexCombine:
    def test_endpoint_weights_return_inputs(self):
        rng = random.Random(3)
        t1, t2 = random_laminate(rng), random_laminate(rng)
        for alpha, want in ((0.0, t1), (1.0, t2)):
            got = convex_combine(t1, t2, alpha)
            assert got.breakpoints == want.breakpoints
            assert got.angles == want.angles

    @pytest.mark.parametrize("alpha", [2.0**-54, 1e-17, 5e-324])
    def test_alpha_lost_against_one_returns_first_input(self, alpha):
        # 1 - alpha rounds to 1: the weight on t1 is exactly 1
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, math.pi / 2))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 4,))
        assert 1.0 - alpha == 1.0
        assert convex_combine(t1, t2, alpha) is t1
        report = verify_combination(t1, t2, alpha, t1)
        assert report.max_residual == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(laminates(), close_laminates(), float_laminates()),
           st.one_of(laminates(), close_laminates(), float_laminates()),
           EXTREME_ALPHAS)
    def test_matches_per_region_reference(self, t1, t2, alpha):
        # never raises on valid input, and equals the scalar loop bit for bit
        got = convex_combine(t1, t2, alpha)
        want = combine_reference(t1, t2, alpha)
        assert list(map(float.hex, got.breakpoints)) == list(map(float.hex, want.breakpoints))
        assert list(map(float.hex, got.angles)) == list(map(float.hex, want.angles))

    @settings(max_examples=300, deadline=None)
    @given(float_laminates(), float_laminates(), EXTREME_ALPHAS)
    def test_full_resolution_inputs_meet_identity(self, t1, t2, alpha):
        # no piece is dropped for being thin, so no measure moves
        report = verify_combination(t1, t2, alpha, convex_combine(t1, t2, alpha))
        assert report.max_residual <= 1e-12, (alpha, report.max_residual)

    def test_one_matched_split_call_per_combination(self, monkeypatch):
        # one call on the unit interval gives the split coefficients
        calls = []

        def counted(lo, hi, fraction):
            calls.append((lo, hi, fraction))
            return matched_split(lo, hi, fraction)

        monkeypatch.setattr(convexity, "matched_split", counted)
        rng = random.Random(5)
        pairs = [(random_laminate(rng), random_laminate(rng)) for _ in range(10)]
        t = pairs[0][0]
        for t1, t2 in pairs + [(t, t)]:
            for alpha, fraction in ((0.3, 0.3), (0.75, 0.25)):
                calls.clear()
                convex_combine(t1, t2, alpha)
                assert calls == [(0.0, 1.0, fraction)]

    def test_refines_the_inputs_runs(self, monkeypatch):
        # each input reaches refine with its equal-angle neighbours merged:
        # its breakpoints are the input's run edges, where the angle changes
        seen = []

        def spied(t1, t2):
            seen.extend((t1, t2))
            return refine(t1, t2)

        monkeypatch.setattr(convexity, "refine", spied)
        rng = random.Random(12)
        pairs = [(ply_laminate(rng, 12), ply_laminate(rng, 15)) for _ in range(20)]
        pairs.append((StepLaminate((-1.0, -0.5, 0.0, 0.5, 1.0), (0.0, -0.0, 1.0, 1.0)),
                      StepLaminate((-1.0, 0.25, 0.75, 1.0), (2.0, 2.0, 2.0))))
        for t1, t2 in pairs:
            for alpha in (0.3, 0.75):
                seen.clear()
                convex_combine(t1, t2, alpha)
                assert len(seen) == 2
                for t, runs in zip((t1, t2), seen):
                    bps, angles = t.breakpoints, t.angles
                    edges = [b for b, l, r in zip(bps[1:-1], angles, angles[1:]) if l != r]
                    assert runs.breakpoints == (-1.0, *edges, 1.0)
                    assert all(map(ne, runs.angles, runs.angles[1:]))

    def test_output_angles_are_input_objects(self):
        rng = random.Random(6)
        for _ in range(20):
            t1, t2 = random_laminate(rng), random_laminate(rng)
            inputs = {id(a) for a in t1.angles + t2.angles}
            for alpha in ALPHAS:
                out = convex_combine(t1, t2, alpha)
                assert all(id(a) in inputs for a in out.angles)

    def test_refinement_midpoint_on_merged_away_breakpoint(self):
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, 1.0))
        t2 = StepLaminate((-1.0, 7.5e-13, 1.5e-12, 1.0), (0.0, 1.0, 0.5))
        for alpha in (0.25, 0.5, 0.75):
            report = verify_combination(t1, t2, alpha, convex_combine(t1, t2, alpha))
            assert report.max_residual <= 1e-12, (alpha, report.max_residual)

    @pytest.mark.parametrize("alpha", [1e-16, 1.0 - 1e-16])
    def test_extreme_alpha_collapses_split_points(self, alpha):
        # the split pieces carrying the small weight are thinner than one
        # float step, so split points coincide; from_pieces drops them
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, math.pi / 2))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 4,))
        report = verify_combination(t1, t2, alpha, convex_combine(t1, t2, alpha))
        assert report.max_residual <= 1e-12, report.max_residual

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6])
    def test_near_coincident_breakpoints(self, alpha):
        # the refinement keeps an interval 1.5e-12 wide, whose split points
        # round onto or past its ends; from_pieces drops those pieces
        t1 = StepLaminate((-1.0, 0.5, 1.0), (0.0, math.pi / 2))
        t2 = StepLaminate((-1.0, 0.5 + 1.5e-12, 1.0), (math.pi / 4, math.pi / 4))
        report = verify_combination(t1, t2, alpha, convex_combine(t1, t2, alpha))
        assert report.max_residual <= 1e-12, report.max_residual

    def test_cross_pair_midpoint(self):
        t1 = StepLaminate((-1.0, 1.0), (0.0,))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 2,))
        p = lamination_parameters(convex_combine(t1, t2, 0.5))
        expected = (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)
        for got, want in zip(p.flat(), expected):
            assert got == pytest.approx(want, abs=1e-14)
        oracle = quadrature_parameters(convex_combine(t1, t2, 0.5), 10**5)
        assert max(abs(a - b) for a, b in zip(p.flat(), oracle.flat())) <= 1e-8

    def test_quarter_weight(self):
        t1 = StepLaminate((-1.0, 1.0), (0.0,))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 4,))
        p = lamination_parameters(convex_combine(t1, t2, 0.25))
        assert p.xi_a == pytest.approx((0.75, 0.5, 0.25, 0.0), abs=1e-14)
        assert p.xi_b == pytest.approx((0.0,) * 4, abs=1e-14)
        assert p.xi_d == pytest.approx((0.75, 0.5, 0.25, 0.0), abs=1e-14)

    def test_equal_angle_intervals_stay_whole(self):
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, 0.5))
        t2 = StepLaminate((-1.0, 0.5, 1.0), (0.0, 1.0))
        out = convex_combine(t1, t2, 0.3)
        # refinement (-1,0,.5,1): the first interval agrees (1 piece), the
        # other two differ (4 pieces each, t2 on the matched set); the
        # second interval's first piece has t2's angle 0 and merges with
        # the first interval's piece; the third interval's rest (t1's 0.5)
        # is the last angle emitted, so it is split mirrored and its first
        # piece merges too
        assert out.ply_count == 7
        assert out.angles == (0.0, 0.5, 0.0, 0.5, 1.0, 0.5, 1.0)

    def test_piece_count_bound(self):
        # ply-table angles repeat, so equal neighbours occur and must merge
        rng = random.Random(9)
        pairs = [(random_laminate(rng), random_laminate(rng)) for _ in range(20)]
        pairs += [(ply_laminate(rng, 12), ply_laminate(rng, 15)) for _ in range(20)]
        for t1, t2 in pairs:
            rp = refine(t1, t2)
            angle_pairs = list(zip(rp.angles1, rp.angles2))
            runs = 1 + sum(map(ne, angle_pairs[1:], angle_pairs))
            for alpha in ALPHAS:
                out = convex_combine(t1, t2, alpha)
                assert out.ply_count <= 4 * runs
                assert all(map(ne, out.angles, out.angles[1:]))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(laminates(), close_laminates(), float_laminates()),
           st.one_of(laminates(), close_laminates(), float_laminates()),
           EXTREME_ALPHAS)
    def test_equal_angle_neighbours_do_not_change_the_result(self, t1, t2, alpha):
        assume(1.0 - alpha != 1.0)  # else convex_combine returns t1 as it is
        # each region of one angle pair is split as a whole, so breakpoints
        # between equal angles change nothing; an angle may differ only in
        # the sign of a zero, hence `==` on the angles
        merged = [StepLaminate.from_pieces(zip(t.breakpoints[1:], t.angles)) for t in (t1, t2)]
        got = convex_combine(t1, t2, alpha)
        want = convex_combine(*merged, alpha)
        assert list(map(float.hex, got.breakpoints)) == list(map(float.hex, want.breakpoints))
        assert got.angles == want.angles

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(laminates(), close_laminates(), float_laminates()),
           st.one_of(laminates(), close_laminates(), float_laminates()),
           EXTREME_ALPHAS)
    def test_never_more_plies_than_the_left_anchored_layout(self, t1, t2, alpha):
        assume(1.0 - alpha != 1.0)  # else convex_combine returns t1 as it is
        # the layout with every refinement interval split alone as
        # [E, rest, E, rest], counted from the angle sequence: dropping a
        # piece never adds a ply, so that count bounds its output
        rp = refine(t1, t2)
        e_angles, r_angles = ((rp.angles2, rp.angles1) if alpha < 0.5
                              else (rp.angles1, rp.angles2))
        old = []
        for a1, e, r in zip(rp.angles1, e_angles, r_angles):
            old += [a1] if e == r else [e, r, e, r]
        old_plies = 1 + sum(map(ne, old[1:], old))
        assert convex_combine(t1, t2, alpha).ply_count <= old_plies

    def test_rejects_alpha_outside_unit_interval(self):
        t = StepLaminate((-1.0, 1.0), (0.0,))
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                convex_combine(t, t, bad)

    def test_random_pairs_meet_identity(self):
        rng = random.Random(41)
        for _ in range(50):
            t1, t2 = random_laminate(rng), random_laminate(rng)
            for alpha in ALPHAS:
                result = convex_combine(t1, t2, alpha)
                report = verify_combination(t1, t2, alpha, result)
                assert report.max_residual <= 1e-12, (alpha, report.max_residual)

    def test_matches_arbitrary_integrand(self):
        # the construction matches any continuous f, not only the trig family
        rng = random.Random(53)
        t1, t2 = random_laminate(rng, max_plies=5), random_laminate(rng, max_plies=5)
        for alpha in (0.25, 0.7):
            combined = convex_combine(t1, t2, alpha)
            for f in (lambda th: th, lambda th: th * th):
                got = exact_weighted_moments(combined, f)
                w1 = exact_weighted_moments(t1, f)
                w2 = exact_weighted_moments(t2, f)
                a = Fraction(alpha)
                for j in range(3):
                    want = (1 - a) * w1[j] + a * w2[j]
                    assert abs(got[j] - want) <= 1e-12 * max(1, abs(want))

    def test_three_way_associativity(self):
        rng = random.Random(67)
        t1, t2, t3 = (random_laminate(rng, max_plies=4) for _ in range(3))
        nested = convex_combine(convex_combine(t1, t2, 0.5), t3, 1.0 / 3.0)
        p = lamination_parameters(nested)
        mean = blend(blend(lamination_parameters(t1), lamination_parameters(t2), 0.5),
                     lamination_parameters(t3), 2.0 / 3.0)
        assert max_param_diff(p, mean) <= 1e-11

    def test_combination_of_a_combination(self):
        # the first combination holds pieces 1e-12 wide; splitting them
        # against c emits pieces narrower than 1e-12, which must all stay
        a = StepLaminate((-1.0, 0.0, 0.004, 1.0), (0.0, math.pi / 2, 0.0))
        b = StepLaminate((-1.0, 1.0), (math.pi / 4,))
        ab = convex_combine(a, b, 1.0 - 1e-9)
        c = StepLaminate((-1.0, 0.5, 1.0), (-math.pi / 4, math.pi / 2))
        report = verify_combination(ab, c, 0.3, convex_combine(ab, c, 0.3))
        assert report.max_residual <= 1e-12, report.max_residual

    def test_peak_memory_is_near_the_result(self):
        # the pieces stream into from_pieces, so no list of all of them
        # sits next to the result: on this ~75k-piece combination the
        # traced peak is 1.27 times what the result keeps
        rng = random.Random(3)
        t1, t2 = ply_laminate(rng, 18_000), ply_laminate(rng, 20_000)
        tracemalloc.start()
        try:
            result = convex_combine(t1, t2, 0.3)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.ply_count > 70_000
        assert peak <= 1.5 * retained, f"peak {peak / retained:.2f} times the result"


class TestVerifyCombination:
    def test_passes_on_construction(self):
        t1 = StepLaminate((-1.0, 1.0), (0.0,))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 2,))
        result = convex_combine(t1, t2, 0.5)
        report = verify_combination(t1, t2, 0.5, result)
        assert report.max_residual <= 1e-13

    def test_negative_control(self):
        t1 = StepLaminate((-1.0, 1.0), (0.0,))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 2,))
        report = verify_combination(t1, t2, 0.5, t1)
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)
