import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamconvex import (
    AlphaOutOfRange,
    DegenerateInterval,
    InvariantViolation,
    StepLaminate,
    blend,
    convex_combine,
    lamination_parameters,
    matched_split,
    moments,
    quadrature_parameters,
    refine,
    verify_combination,
    weighted_moments,
)

from _helpers import max_param_diff, random_laminate

# Two float subtractions of shared-width endpoints can disagree in the
# last bit; this is the measurement precision of widths near magnitude 1.
WIDTH_ULPS = 2.0**-51


def summed_moments(*intervals):
    """Componentwise sum of moments(lo, hi) over the (lo, hi) intervals."""
    return tuple(map(sum, zip(*(moments(lo, hi) for lo, hi in intervals))))


def matched_moments(s):
    return summed_moments((s.a, s.b), (s.c, s.d))


def assert_matched(s, rel=1e-12):
    whole = moments(s.lo, s.hi)
    matched = matched_moments(s)
    complement = summed_moments((s.lo, s.a), (s.b, s.c), (s.d, s.hi))
    for got, want in zip(matched, whole):
        assert abs(got - s.fraction * want) <= rel * max(1.0, abs(want))
    for got, m, w in zip(complement, matched, whole):
        assert got + m == pytest.approx(w, abs=1e-12)


class TestMatchedSplit:
    def test_symmetric_half(self):
        s = matched_split(-1.0, 1.0, 0.5)
        assert s.pair_width == 0.5
        assert s.center_gap == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-15)
        # frozen from the construction; agrees with the quoted 5-decimal
        # approximations to 1e-5
        assert (s.a, s.b, s.c, s.d) == pytest.approx(
            (-0.8090169943749475, -0.30901699437494745,
             0.30901699437494745, 0.8090169943749475), abs=1e-15)
        assert matched_moments(s) == pytest.approx((1.0, 0.0, 1.0 / 3.0), abs=1e-15)
        assert_matched(s)

    def test_unit_interval_half(self):
        s = matched_split(0.0, 1.0, 0.5)
        assert (s.a, s.b, s.c, s.d) == pytest.approx(
            (0.09549150281252627, 0.3454915028125263,
             0.6545084971874737, 0.9045084971874737), abs=1e-15)
        # affine equivariance: the same split mapped from (-1, 1) by
        # z -> (z + 1) / 2
        ref = matched_split(-1.0, 1.0, 0.5)
        for got, want in zip((s.a, s.b, s.c, s.d),
                             ((ref.a + 1) / 2, (ref.b + 1) / 2,
                              (ref.c + 1) / 2, (ref.d + 1) / 2)):
            assert got == pytest.approx(want, abs=1e-15)
        assert matched_moments(s) == pytest.approx((0.5, 0.25, 1.0 / 6.0), abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 1e-8, 1e-9])
    def test_tends_to_whole_interval(self, delta):
        s = matched_split(-1.0, 1.0, 1.0 - delta)
        assert s.a - -1.0 < 5 * delta
        assert 1.0 - s.d < 5 * delta
        assert s.c - s.b < 5 * delta

    def test_rejects_bad_fraction(self):
        for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(AlphaOutOfRange):
                matched_split(-1.0, 1.0, bad)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            matched_split(0.5, 0.5, 0.3)
        with pytest.raises(DegenerateInterval):
            matched_split(1.0, -1.0, 0.3)

    def test_rejects_collapsed_points(self):
        # pieces of a 1.5e-12-wide interval round onto its ends
        with pytest.raises(InvariantViolation, match="strictly ordered"):
            matched_split(0.5, 0.5 + 1.5e-12, 1.0 - 1e-4)

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
        s = matched_split(lo, hi, fraction)
        assert lo < s.a < s.b < s.c < s.d < hi
        assert s.pair_width == fraction * (0.5 * (hi - lo))
        assert abs((s.b - s.a) - s.pair_width) <= WIDTH_ULPS
        assert abs((s.d - s.c) - s.pair_width) <= WIDTH_ULPS
        assert abs((s.b - s.a) - (s.d - s.c)) <= WIDTH_ULPS
        assert_matched(s)


ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)

# Known defect (ROADMAP item 3): where split points coincide in floating
# point, matched_split's ordering check raises inside convex_combine,
# though the input is valid.
COLLAPSED_SPLIT = pytest.mark.xfail(raises=InvariantViolation, strict=True,
                                    reason="collapsed split points raise")


class TestConvexCombine:
    def test_endpoint_weights_return_inputs(self):
        rng = random.Random(3)
        t1, t2 = random_laminate(rng), random_laminate(rng)
        for alpha, want in ((0.0, t1), (1.0, t2)):
            got = convex_combine(t1, t2, alpha)
            assert got.breakpoints == want.breakpoints
            assert got.angles == want.angles

    def test_refinement_midpoint_on_merged_away_breakpoint(self):
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, 1.0))
        t2 = StepLaminate((-1.0, 7.5e-13, 1.5e-12, 1.0), (0.0, 1.0, 0.5))
        for alpha in (0.25, 0.5, 0.75):
            report = verify_combination(t1, t2, alpha, convex_combine(t1, t2, alpha))
            assert report.passed, (alpha, report.max_residual)

    @COLLAPSED_SPLIT
    @pytest.mark.parametrize("alpha", [1e-16, 1.0 - 1e-16])
    def test_extreme_alpha_collapses_split_points(self, alpha):
        # the split pieces carrying the small weight are thinner than one
        # float step, so split points coincide
        t1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, math.pi / 2))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 4,))
        report = verify_combination(t1, t2, alpha, convex_combine(t1, t2, alpha))
        assert report.passed, report.max_residual

    @COLLAPSED_SPLIT
    @pytest.mark.parametrize("alpha", [1e-4, 1e-6])
    def test_near_coincident_breakpoints(self, alpha):
        # the refinement keeps an interval 1.5e-12 wide, whose split points
        # round onto or past its ends
        t1 = StepLaminate((-1.0, 0.5, 1.0), (0.0, math.pi / 2))
        t2 = StepLaminate((-1.0, 0.5 + 1.5e-12, 1.0), (math.pi / 4, math.pi / 4))
        report = verify_combination(t1, t2, alpha, convex_combine(t1, t2, alpha))
        assert report.passed, report.max_residual

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
        # refinement (-1,0,.5,1): first interval agrees (1 piece), the
        # other two differ (5 pieces each)
        assert out.ply_count == 11

    def test_piece_count_bound(self):
        rng = random.Random(9)
        for _ in range(20):
            t1, t2 = random_laminate(rng), random_laminate(rng)
            intervals = len(refine(t1, t2).angles1)
            for alpha in ALPHAS:
                assert convex_combine(t1, t2, alpha).ply_count <= 5 * intervals

    def test_rejects_alpha_outside_unit_interval(self):
        t = StepLaminate((-1.0, 1.0), (0.0,))
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(AlphaOutOfRange):
                convex_combine(t, t, bad)

    def test_random_pairs_meet_identity(self):
        rng = random.Random(41)
        for _ in range(50):
            t1, t2 = random_laminate(rng), random_laminate(rng)
            for alpha in ALPHAS:
                result = convex_combine(t1, t2, alpha)
                report = verify_combination(t1, t2, alpha, result)
                assert report.passed, (alpha, report.max_residual)

    def test_matches_arbitrary_integrand(self):
        # the construction matches any continuous f, not only the trig family
        rng = random.Random(53)
        t1, t2 = random_laminate(rng, max_plies=5), random_laminate(rng, max_plies=5)
        for alpha in (0.25, 0.7):
            combined = convex_combine(t1, t2, alpha)
            for f in (lambda th: th, lambda th: th * th):
                got = weighted_moments(combined, f)
                w1 = weighted_moments(t1, f)
                w2 = weighted_moments(t2, f)
                for j in range(3):
                    want = (1 - alpha) * w1[j] + alpha * w2[j]
                    assert abs(got[j] - want) <= 1e-12 * max(1.0, abs(want))

    def test_three_way_associativity(self):
        rng = random.Random(67)
        t1, t2, t3 = (random_laminate(rng, max_plies=4) for _ in range(3))
        nested = convex_combine(convex_combine(t1, t2, 0.5), t3, 1.0 / 3.0)
        p = lamination_parameters(nested)
        mean = blend(blend(lamination_parameters(t1), lamination_parameters(t2), 0.5),
                     lamination_parameters(t3), 2.0 / 3.0)
        assert max_param_diff(p, mean) <= 1e-11

    # Known defect (ROADMAP item 2): the first combination holds pieces
    # 2e-12 wide; splitting them against C emits ten pieces narrower than
    # 1e-12, which from_pieces drops, so the second combination misses the
    # verdict tolerance (residual 2.8e-12; 2.9e-16 with exact merging).
    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="the 1e-12 breakpoint merge moves measure (ROADMAP item 2)")
    def test_combination_of_a_combination(self):
        a = StepLaminate((-1.0, 0.0, 0.004, 1.0), (0.0, math.pi / 2, 0.0))
        b = StepLaminate((-1.0, 1.0), (math.pi / 4,))
        ab = convex_combine(a, b, 1.0 - 1e-9)
        c = StepLaminate((-1.0, 0.5, 1.0), (-math.pi / 4, math.pi / 2))
        report = verify_combination(ab, c, 0.3, convex_combine(ab, c, 0.3))
        assert report.passed, report.max_residual


class TestVerifyCombination:
    def test_passes_on_construction(self):
        t1 = StepLaminate((-1.0, 1.0), (0.0,))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 2,))
        result = convex_combine(t1, t2, 0.5)
        report = verify_combination(t1, t2, 0.5, result)
        assert report.passed
        assert report.max_residual <= 1e-13

    def test_negative_control(self):
        t1 = StepLaminate((-1.0, 1.0), (0.0,))
        t2 = StepLaminate((-1.0, 1.0), (math.pi / 2,))
        report = verify_combination(t1, t2, 0.5, t1)
        assert not report.passed
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)
