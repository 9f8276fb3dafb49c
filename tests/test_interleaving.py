import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamconvex import (
    SearchCapExceeded,
    StepLaminate,
    UndefinedAtBreakpoint,
    blend,
    congruence_solutions,
    convergence_table,
    find_n_in_region,
    interleave,
    lamination_parameters,
    oscillation_witness,
)
from lamconvex import interleaving

from _helpers import (
    close_laminates,
    exact_interleaved_parameters,
    exact_parameters,
    float_laminates,
    interleave_value,
    laminates,
    ply_laminate,
    random_laminate,
    trig_values,
)

T0 = StepLaminate((-1.0, 1.0), (0.0,))
T90 = StepLaminate((-1.0, 1.0), (math.pi / 2,))

SOURCES = st.one_of(laminates(), close_laminates(), float_laminates())
ALPHAS = st.one_of(st.floats(min_value=1e-3, max_value=0.999),
                   st.sampled_from([1e-13, 0.5 - 1e-13, 0.5, 1.0 - 2.0**-53]))


class TestInterleave:
    def test_single_cell(self):
        t = interleave(T0, T90, 0.5, 1)
        assert t.breakpoints == (-1.0, 0.0, 1.0)
        assert t.angles == (0.0, math.pi / 2)

    def test_two_cells(self):
        t = interleave(T0, T90, 0.5, 2)
        assert t.breakpoints == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert t.angles == (0.0, math.pi / 2, 0.0, math.pi / 2)

    def test_first_source_measure_is_alpha(self):
        # total measure on the first source is 2*alpha regardless of n,
        # so the z^0 parameters already sit at the limit
        for alpha in (0.3, 0.5, 0.71):
            limit = blend(lamination_parameters(T0), lamination_parameters(T90), alpha)
            for n in (1, 3, 5, 16, 101):
                p = lamination_parameters(interleave(T0, T90, alpha, n))
                for got, want in zip(p.xi_a, limit.xi_a):
                    assert got == pytest.approx(want, abs=1e-13)

    def test_folds_in_source_breakpoints(self):
        # n=1, alpha=0.5: first band (-1, 0) takes t1, second band (0, 1)
        # takes t2; t1's own breakpoint at -0.5 must survive
        t1 = StepLaminate((-1.0, -0.5, 1.0), (0.2, 0.4))
        t = interleave(t1, T90, 0.5, 1)
        assert -0.5 in t.breakpoints
        assert t.value_at(-0.7) == 0.2
        assert t.value_at(-0.3) == 0.4
        assert t.value_at(0.5) == math.pi / 2

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            interleave(T0, T90, 1.0, 4)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            interleave(T0, T90, 0.5, 0)

    @pytest.mark.parametrize("n", [interleaving.MAX_CELLS + 1, 2**40])
    def test_rejects_more_cells_than_it_builds(self, n):
        # the limit is checked before any cell edge is made
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n = {n} is above {interleaving.MAX_CELLS}"):
                interleave(T0, T90, 0.3, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, f"peak {peak} bytes"

    def test_keeps_near_coincident_breakpoints(self):
        # 7.5e-13 and 1.5e-12 both stay: the two thin pieces of the second
        # cell's first half take t1's angles; the cell edge at 0 goes, as
        # t2's angle before it equals t1's after it
        t1 = StepLaminate((-1.0, 7.5e-13, 1.5e-12, 1.0), (0.0, 1.0, 0.5))
        t2 = StepLaminate((-1.0, 0.0, 1.0), (0.0, 1.0))
        t = interleave(t1, t2, 0.5, 2)
        assert t.breakpoints == (-1.0, 7.5e-13, 1.5e-12, 0.5, 1.0)
        assert t.angles == (0.0, 1.0, 0.5, 1.0)

    def test_piece_one_float_step_wide_takes_its_own_angle(self):
        # the middle piece of t1 is one float step wide; its midpoint
        # rounds onto its right edge, which once gave it the next angle
        t1 = StepLaminate((-1.0, -0.3, math.nextafter(-0.3, 1.0), 1.0), (0.1, 0.2, 0.3))
        t2 = StepLaminate((-1.0, 1.0), (0.9,))
        t = interleave(t1, t2, 0.5, 1)
        assert t.breakpoints == (-1.0, -0.3, math.nextafter(-0.3, 1.0), 0.0, 1.0)
        assert t.angles == (0.1, 0.2, 0.3, 0.9)

    def test_crossed_part_starts_nothing(self):
        # at n = 5 and alpha = 1 - 2^-53 the third cell's t2 part starts
        # above the fourth cell's start after rounding; the fourth cell's
        # t1 part must still take t1, and the t2 parts hold no more than
        # round-off
        alpha = 1.0 - 2.0**-53
        left = [-1.0 + (2.0 * i) / 5 for i in range(5)]
        assert left[2] + 2.0 * alpha / 5 > left[3]
        t = interleave(T0, T90, alpha, 5)
        second = sum(hi - lo for lo, hi, angle in zip(t.breakpoints, t.breakpoints[1:], t.angles)
                     if angle == math.pi / 2)
        assert second <= 5 * 2.0**-52

    @settings(max_examples=150, deadline=None)
    @given(SOURCES, SOURCES, ALPHAS, st.integers(min_value=1, max_value=64))
    def test_matches_loop_reference(self, t1, t2, alpha, n):
        want_bps, want_angles = loop_interleave(t1, t2, alpha, n)
        got = interleave(t1, t2, alpha, n)
        assert [b.hex() for b in got.breakpoints] == [b.hex() for b in want_bps]
        assert got.angles == want_angles

    @settings(max_examples=150, deadline=None)
    @given(SOURCES, SOURCES, ALPHAS, st.integers(min_value=1, max_value=64))
    def test_no_adjacent_pieces_share_an_angle(self, t1, t2, alpha, n):
        angles = interleave(t1, t2, alpha, n).angles
        assert all(a != b for a, b in zip(angles, angles[1:]))

    @settings(max_examples=100, deadline=None)
    @given(SOURCES, ALPHAS, st.integers(min_value=1, max_value=64))
    def test_a_laminate_with_itself_is_itself(self, t, alpha, n):
        want = StepLaminate.from_pieces(zip(t.breakpoints[1:], t.angles))
        assert interleave(t, t, alpha, n) == want

    def test_a_laminate_with_itself_merges_equal_neighbours(self):
        t = StepLaminate((-1.0, -0.25, 0.1, 0.6, 1.0), (0.5, 0.5, -0.0, 0.0))
        want = StepLaminate((-1.0, 0.1, 1.0), (0.5, -0.0))
        assert StepLaminate.from_pieces(zip(t.breakpoints[1:], t.angles)) == want
        for n in (1, 3, 64):
            assert interleave(t, t, 0.3, n) == want

    @pytest.mark.parametrize("n", [8192, 2**17])
    def test_shared_zero_edge_keeps_the_cell_edge(self, n):
        # 0 is a cell edge (+0.0) and a breakpoint of both sources (-0.0);
        # a source breakpoint equal to a part edge gives way to it
        t1 = StepLaminate((-1.0, -0.0, 1.0), (0.1, 0.2))
        t2 = StepLaminate((-1.0, -0.0, 0.5, 1.0), (0.3, 0.4, 0.5))
        t = interleave(t1, t2, 0.3, n)
        (zero_edge,) = [b for b in t.breakpoints if b == 0.0]
        assert math.copysign(1.0, zero_edge) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(SOURCES, SOURCES, ALPHAS, st.integers(min_value=1, max_value=300))
    def test_edge_rounding_bound_holds(self, t1, t2, alpha, n):
        built = exact_parameters(interleave(t1, t2, alpha, n))
        ideal = exact_interleaved_parameters(t1, t2, alpha, n)
        gap = max(abs(b - i) for b, i in zip(built, ideal))
        assert gap <= interleaving._edge_rounding_bound(n)

    @pytest.mark.parametrize("n", [2**16, 2**17])
    def test_parameters_match_exact_reference(self, n):
        rng = random.Random(16_24)
        t = interleave(ply_laminate(rng, 16), ply_laminate(rng, 24), 0.3, n)
        got = lamination_parameters(t).flat()
        worst = max(abs(float(want - g)) for want, g in zip(exact_parameters(t), got))
        assert worst <= 1e-12, worst

    def test_peak_memory_is_near_the_result(self):
        # the cell parts stream into from_pieces, so no list of all the
        # pieces sits next to the result: here the traced peak is 1.20
        # times what the result keeps
        rng = random.Random(3)
        t1, t2 = ply_laminate(rng, 28), ply_laminate(rng, 32)
        tracemalloc.start()
        try:
            result = interleave(t1, t2, 0.3, 2**16)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.ply_count > 80_000
        assert peak <= 1.5 * retained, f"peak {peak / retained:.2f} times the result"


def loop_interleave(t1, t2, alpha, n):
    """The per-part loop reference of `interleave`: (breakpoints, angles).

    Part k of the interleaving runs from starts[k] to starts[k + 1], t1's
    for even k and t2's for odd k. Each source ply is clipped to the part,
    the part edge winning a tie, and kept if it has positive width; then
    an edge not above the last kept edge is dropped, and neighbours of
    equal angle merge.
    """
    starts = []
    for i in range(n):
        left = -1.0 + (2.0 * i) / n
        starts += [left, left + 2.0 * alpha / n]
    starts.append(1.0)
    pieces = []
    for k in range(2 * n):
        lo, hi = starts[k], starts[k + 1]
        t = (t1, t2)[k % 2]
        for a, b, angle in zip(t.breakpoints, t.breakpoints[1:], t.angles):
            left, right = max(lo, a), min(hi, b)
            if left < right:
                pieces.append((right, angle))
    edges, angles = [-1.0], []
    for right, angle in pieces:
        if right > edges[-1]:
            edges.append(right)
            angles.append(angle)
    merged_edges, merged_angles = [-1.0], []
    for right, angle in zip(edges[1:], angles):
        if merged_angles and angle == merged_angles[-1]:
            merged_edges[-1] = right
        else:
            merged_edges.append(right)
            merged_angles.append(angle)
    return tuple(merged_edges), tuple(merged_angles)


class TestInterleaveValue:
    def test_first_band(self):
        assert interleave_value(T0, T90, 0.5, 1, Fraction(-1, 2)) == 0.0
        assert interleave_value(T0, T90, 0.5, 1, -0.5) == 0.0

    def test_second_band(self):
        assert interleave_value(T0, T90, 0.5, 1, Fraction(1, 2)) == math.pi / 2
        assert interleave_value(T0, T90, 0.5, 1, 0.5) == math.pi / 2

    def test_cell_boundary_is_undefined(self):
        with pytest.raises(UndefinedAtBreakpoint):
            interleave_value(T0, T90, 0.5, 2, Fraction(0))
        with pytest.raises(UndefinedAtBreakpoint):
            interleave_value(T0, T90, 0.5, 2, 0.0)

    def test_band_boundary_is_undefined(self):
        # fractional part exactly alpha: x = -1 + 2*alpha/n
        with pytest.raises(UndefinedAtBreakpoint):
            interleave_value(T0, T90, 0.5, 2, Fraction(-1, 2))

    def test_source_breakpoint_is_undefined(self):
        t1 = StepLaminate((-1.0, -0.5, 1.0), (0.0, 0.4))
        with pytest.raises(UndefinedAtBreakpoint):
            interleave_value(t1, T90, 0.5, 1, Fraction(-1, 2))

    @pytest.mark.parametrize("x,q", [(Fraction(-1, 2), 2), (Fraction(1, 3), 3), (Fraction(0), 1)])
    def test_undefined_at_denominator_multiples(self, x, q):
        for k in range(1, 6):
            with pytest.raises(UndefinedAtBreakpoint):
                interleave_value(T0, T90, 0.5, 2 * q * k, x)

    def test_outside_open_interval(self):
        with pytest.raises(ValueError, match=r"outside \(-1, 1\)"):
            interleave_value(T0, T90, 0.5, 2, 1.0)

    def test_matches_built_laminate(self):
        rng = random.Random(71)
        t1 = random_laminate(rng, max_plies=3)
        t2 = random_laminate(rng, max_plies=3)
        for alpha, n in ((0.5, 1), (0.5, 2), (0.3, 3), (0.7, 7), (0.41, 16), (0.5, 101)):
            built = interleave(t1, t2, alpha, n)
            checked = 0
            while checked < 170:
                x = rng.uniform(-1.0, 1.0)
                if min(abs(x - b) for b in built.breakpoints) < 1e-9:
                    continue
                try:
                    value = interleave_value(t1, t2, alpha, n, x)
                except UndefinedAtBreakpoint:
                    continue
                assert value == built.value_at(x)
                checked += 1


def brute_force_bezout(p, q):
    for n in range(1, q + 1):
        if (n * p) % q == 1:
            return n, (n * p - 1) // q
    raise AssertionError("unreachable for coprime p, q")


class TestBezout:
    @pytest.mark.parametrize("p,q,expected", [(1, 2, (1, 0)), (3, 7, (5, 2)), (2, 5, (3, 1))])
    def test_examples(self, p, q, expected):
        assert congruence_solutions(p, q, 1, 1)[0] == expected
        assert congruence_solutions(p, q, 1, 1)[0] == brute_force_bezout(p, q)

    def test_smallest_solution(self):
        for q in range(2, 40):
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    assert congruence_solutions(p, q, 1, 1)[0] == brute_force_bezout(p, q)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="p = 2 and q = 4 share factor 2"):
            congruence_solutions(2, 4, 1, 1)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError, match="need integers 0 < p < q"):
            congruence_solutions(3, 2, 1, 1)


class TestCongruenceSolutions:
    def test_half_denominator(self):
        assert congruence_solutions(1, 2, 1, 3) == [(1, 0), (3, 1), (5, 2)]

    def test_smallest_first(self):
        # (3, 1) solves 3*3 - 7*1 = 2 and precedes the scaled pair (10, 4)
        assert congruence_solutions(3, 7, 2, 3) == [(3, 1), (10, 4), (17, 7)]

    def test_scaled_family_starts_at_product(self):
        # the scaling argument's certificates j * (n, i), over the Bezout
        # solutions (n, i) of n*p - q*i = 1, are among the solutions
        n0, i0 = congruence_solutions(3, 7, 1, 1)[0]
        scaled = [(2 * (n0 + k * 7), 2 * (i0 + k * 3)) for k in range(3)]
        assert scaled == [(10, 4), (24, 10), (38, 16)]
        assert set(scaled) <= set(congruence_solutions(3, 7, 2, 6))

    def test_rejects_j_out_of_range(self):
        for j in (0, 7, -1):
            with pytest.raises(ValueError, match=r"j must lie in \[1, 6\]"):
                congruence_solutions(3, 7, j, 1)

    @settings(max_examples=200)
    @given(st.integers(min_value=2, max_value=60), st.data())
    def test_certificates(self, q, data):
        p = data.draw(st.integers(min_value=1, max_value=q - 1).filter(
            lambda v: math.gcd(v, q) == 1))
        j = data.draw(st.integers(min_value=1, max_value=q - 1))
        previous = 0
        for n, i in congruence_solutions(p, q, j, 4):
            assert n * p - q * i == j
            assert 0 <= i <= n - 1
            assert n > previous
            previous = n
            assert Fraction(n * p % q, q) == Fraction(j, q)


def scan_first_n(y, lo, hi, n_min):
    """Reference search: one full residue period of n*y from n_min."""
    for n in range(n_min, n_min + y.denominator):
        if lo < n * y % 1 < hi:
            return n
    return None


class TestFindN:
    def test_immediate_hit(self):
        assert find_n_in_region(Fraction(1, 4), 0.0, 0.5) == 1

    def test_skips_boundary(self):
        # n = 2 gives exactly 1/2, excluded by strictness
        assert find_n_in_region(Fraction(1, 4), 0.5, 1.0) == 3

    def test_impossible_region_reports(self):
        with pytest.raises(SearchCapExceeded):
            find_n_in_region(Fraction(1, 2), 0.0, 0.4, cap=10**6)

    def test_period_shortcut_is_fast(self):
        # denominator 2 means two residues decide the outcome even with a
        # huge cap; this must return (or raise) instantly
        with pytest.raises(SearchCapExceeded):
            find_n_in_region(Fraction(1, 2), 0.0, 0.4, cap=10**18)

    def test_huge_denominator_is_fast(self):
        # first n with n/q > 1/2 for q = 2^53 + 1 is (q + 1)/2
        start = time.perf_counter()
        n = find_n_in_region(Fraction(1, 2**53 + 1), 0.5, 1.0, cap=10**18)
        assert time.perf_counter() - start < 0.1
        assert n == 2**52 + 1

    def test_float_path_finds_dense_orbit(self):
        y = math.sqrt(2.0) / 2.0
        n = find_n_in_region(y, 0.49, 0.51)
        assert 0.49 < (n * y) % 1.0 < 0.51

    def test_float_path_respects_cap(self):
        with pytest.raises(SearchCapExceeded):
            find_n_in_region(0.5, 0.0, 0.4, cap=2000)

    def test_float_witness_is_exact(self):
        # In float arithmetic frac(3044602 * y) lies 1e-10 below hi; its
        # exact value lies 1e-10 above it. The first exact witness is much
        # later (confirmed by a residue scan).
        y, lo, hi = 0.7042088723136009, 0.7410637236850656, 0.7410637336850656
        assert not lo < 3044602 * Fraction(y) % 1 < hi
        n = find_n_in_region(y, lo, hi, cap=10**8)
        assert n == 44925155
        assert lo < n * Fraction(y) % 1 < hi

    def test_deep_euclid_chain_is_fast(self):
        # y = F_1501/F_1502, a 1,042-bit denominator whose Euclid chain is
        # about 1,500 steps long, more than the default recursion limit.
        # F_k^2 = 1 (mod F_{k+1}) for odd k, so residue 1, the only one in
        # the region, first comes at n = F_1501.
        fib = [0, 1]
        while len(fib) <= 1502:
            fib.append(fib[-1] + fib[-2])
        y = Fraction(fib[1501], fib[1502])
        start = time.perf_counter()
        n = find_n_in_region(y, 0.0, Fraction(2, fib[1502]), cap=fib[1502])
        assert time.perf_counter() - start < 0.1
        assert n == fib[1501]

    @pytest.mark.parametrize("x, alpha, above", [
        (-0.9999902583532311, 0.25, [51327, 51328, 51329, 51330, 51331]),
        (-0.9999998995989753, 0.5, [9960058, 9960059, 9960060, 9960061, 9960062]),
    ])
    def test_float_points_of_the_witness_benchmark(self, x, alpha, above):
        # power-of-two q near 2^53: y is about 5e-6 and 5e-8, so the first
        # "above" index sits near alpha / y
        table = oscillation_witness(T0, T90, alpha, x, 5, cap=10**8)
        assert [n for n, _ in table.below] == [1, 2, 3, 4, 5]
        assert [n for n, _ in table.above] == above
        y = (Fraction(x) + 1) / 2
        for (lo, hi), witnesses in (((0, alpha), table.below), ((alpha, 1), table.above)):
            for n, part in witnesses:
                assert part == n * y % 1
                assert lo < part < hi

    def test_empty_region_says_no_n_exists(self):
        with pytest.raises(SearchCapExceeded, match="no n has .* no multiple of 1/2"):
            find_n_in_region(Fraction(1, 2), 0.0, 0.4, cap=10**6)

    def test_cap_message_names_first_n(self):
        with pytest.raises(SearchCapExceeded, match=r"no n in \[1, 100\].*first is n = 501"):
            find_n_in_region(Fraction(1, 1000), 0.5, 1.0, cap=100)
        # the float 0.001 is slightly above 1/1000, so 500 * y exceeds 1/2
        with pytest.raises(SearchCapExceeded, match=r"no n in \[7, 100\].*first is n = 500"):
            find_n_in_region(0.001, 0.5, 1.0, n_min=7, cap=100)

    def test_validates_region(self):
        with pytest.raises(ValueError, match="region must satisfy"):
            find_n_in_region(Fraction(1, 3), 0.6, 0.4)

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=3000), st.data())
    def test_matches_residue_scan(self, q, data):
        p = data.draw(st.integers(min_value=0, max_value=q - 1).filter(
            lambda v: math.gcd(v, q) == 1))
        y = Fraction(p, q) + data.draw(st.integers(min_value=0, max_value=3))
        den = data.draw(st.sampled_from([q, 2 * q, data.draw(st.integers(1, 5000))]))
        a = data.draw(st.integers(min_value=0, max_value=den - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=den))
        lo, hi = Fraction(a, den), Fraction(b, den)
        n_min = data.draw(st.integers(min_value=1, max_value=10**6))
        cap = data.draw(st.integers(min_value=1, max_value=n_min + 2 * q))
        want = scan_first_n(y, lo, hi, n_min)
        if want is not None and want <= cap:
            assert find_n_in_region(y, lo, hi, n_min=n_min, cap=cap) == want
        else:
            with pytest.raises(SearchCapExceeded, match="no n"):
                find_n_in_region(y, lo, hi, n_min=n_min, cap=cap)


class TestOscillationWitness:
    def test_rational_midpoint(self):
        table = oscillation_witness(T0, T90, 0.5, Fraction(-1, 2), 2)
        assert table.below == ((1, Fraction(1, 4)), (5, Fraction(1, 4)))
        assert table.above == ((3, Fraction(3, 4)), (7, Fraction(3, 4)))
        assert table.undefined_at == (2, 4)
        assert table.distinct_values is True

    def test_witnesses_select_each_source(self):
        table = oscillation_witness(T0, T90, 0.5, Fraction(-1, 2), 3)
        for n, _ in table.below:
            assert interleave_value(T0, T90, 0.5, n, Fraction(-1, 2)) == table.angle1
        for n, _ in table.above:
            assert interleave_value(T0, T90, 0.5, n, Fraction(-1, 2)) == table.angle2
        for n in table.undefined_at:
            with pytest.raises(UndefinedAtBreakpoint):
                interleave_value(T0, T90, 0.5, n, Fraction(-1, 2))

    def test_irrational_point(self):
        table = oscillation_witness(T0, T90, 0.5, math.sqrt(2.0) - 1.0, 3)
        assert len(table.below) == 3
        assert len(table.above) == 3
        assert table.undefined_at == ()
        y = math.sqrt(2.0) / 2.0
        for n, frac in table.below:
            assert 0.0 < frac < 0.5
            assert frac == pytest.approx((n * y) % 1.0)
        for n, frac in table.above:
            assert 0.5 < frac < 1.0

    @pytest.mark.parametrize("x,alpha", [(Fraction(-1, 3), 0.5), (Fraction(-1, 2), 0.5),
                                         (Fraction(1, 5), 0.25), (Fraction(-1, 4), 0.25),
                                         (Fraction(1, 4), 0.375), (Fraction(-3, 7), 0.375)])
    def test_undefined_at_is_every_undefined_index(self, x, alpha):
        table = oscillation_witness(T0, T90, alpha, x, 6, cap=60)
        undefined = []
        for n in range(1, 61):
            try:
                interleave_value(T0, T90, alpha, n, x)
            except UndefinedAtBreakpoint:
                undefined.append(n)
        assert table.undefined_at == tuple(undefined[:6])

    def test_undefined_at_stops_at_cap(self):
        table = oscillation_witness(T0, T90, 0.5, Fraction(-1, 3), 4, cap=11)
        assert table.undefined_at == (3, 6, 9)

    def test_vacuous_when_sources_agree(self):
        table = oscillation_witness(T0, T0, 0.5, Fraction(-1, 2), 2)
        assert table.below and table.above
        assert table.distinct_values is False

    def test_breakpoint_values_reported_as_none(self):
        t1 = StepLaminate((-1.0, -0.5, 1.0), (0.0, 0.4))
        table = oscillation_witness(t1, T90, 0.5, Fraction(-1, 2), 2)
        assert table.angle1 is None
        assert table.distinct_values is None

    def test_rational_point_next_to_a_float_breakpoint(self):
        # 1/3 rounds onto the breakpoint float(1/3) but lies right of it
        t1 = StepLaminate((-1.0, float(Fraction(1, 3)), 1.0), (0.0, 1.0))
        t2 = StepLaminate((-1.0, 1.0), (2.0,))
        table = oscillation_witness(t1, t2, 0.5, Fraction(1, 3), 2)
        assert table.angle1 == t1.value_at(Fraction(1, 3)) == 1.0
        assert table.distinct_values is True


class TestConvergenceTable:
    def test_cross_pair_decay(self):
        ns = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        rows = convergence_table(T0, T90, 0.5, ns)
        # z^0 block: exact at every dyadic n
        for row in rows:
            assert row.residual_a <= 1e-12
        # z^1 block dominates and halves with each doubling
        for row in rows:
            assert row.residual_max == pytest.approx(1.0 / row.n, abs=1e-15)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.residual_max <= prev.residual_max
            assert cur.residual_max / prev.residual_max == pytest.approx(0.5, abs=1e-6)
        assert rows[-1].residual_max <= 1e-2

    def test_coupling_block_halves_for_uneven_weight(self):
        rows = convergence_table(T0, T90, 0.3, [64, 128])
        ratio = rows[1].residual_b / rows[0].residual_b
        assert 0.45 <= ratio <= 0.55

    def test_swap_limit_orientation(self):
        rows = convergence_table(T0, T90, 0.25, [32], swap_limit=True)
        closed = convergence_table(T0, T90, 0.25, [32])[0].params
        other = blend(lamination_parameters(T0), lamination_parameters(T90), 0.75)
        expected = tuple(abs(a - b) for a, b in zip(closed.flat(), other.flat()))
        assert rows[0].residuals == expected

    def test_distances_vanish(self):
        rows = convergence_table(T0, T90, 0.5, [16, 4096])
        assert rows[-1].residual_max < 0.05 * rows[0].residual_max

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(laminates(max_plies=8), close_laminates(max_plies=8)),
           st.one_of(laminates(max_plies=8), close_laminates(max_plies=8)),
           st.one_of(st.floats(min_value=1e-9, max_value=1.0 - 2.0**-53),
                     st.sampled_from([1e-9, 0.3, 1.0 - 2.0**-53])),
           st.integers(min_value=1, max_value=64))
    def test_rows_are_the_rounded_exact_parameters(self, t1, t2, alpha, n):
        row, = convergence_table(t1, t2, alpha, [n])
        want = [float(v) for v in exact_interleaved_parameters(t1, t2, alpha, n)]
        assert list(row.params.flat()) == want

    @pytest.mark.parametrize("t1, t2, alpha, n", [
        # a subnormal breakpoint: the common scale reaches 2^1074
        (StepLaminate((-1.0, 5e-324, 1.0), (0.3, 1.1)), T90, 0.3, 7),
        (T0, StepLaminate((-1.0, -5e-324, 1.0), (0.7, -0.2)), 0.5, 5),
        # breakpoints exactly on cell edges and on the edges of the first part
        (StepLaminate((-1.0, -0.875, 0.0, 1.0), (0.1, 0.5, 0.9)),
         StepLaminate((-1.0, -0.5, 0.625, 1.0), (-0.4, 1.3, 0.2)), 0.25, 4),
        # alpha 1/3 is taken exactly, not as the float nearest to it
        (StepLaminate((-1.0, -0.3, 0.4, 1.0), (0.2, 1.0, -0.6)),
         StepLaminate((-1.0, 0.1, 1.0), (0.8, -1.2)), Fraction(1, 3), 6),
        (T0, T90, Fraction(1, 3), 5),
    ], ids=["subnormal-first", "subnormal-second", "cell-edges", "third", "third-cross"])
    def test_edge_cases_are_exact(self, t1, t2, alpha, n):
        row, = convergence_table(t1, t2, alpha, [n])
        want = [float(v) for v in exact_interleaved_parameters(t1, t2, alpha, n)]
        assert list(row.params.flat()) == want

    def test_huge_n_is_exact_and_cheap(self):
        # With one-ply sources and alpha = 1/2, the first halves of the n
        # cells carry z^0, z^1, z^2 moments 1, -1/(2n) and 1/3 out of the
        # full 2, 0 and 2/3, so the z^0 and z^2 blocks sit on the limit.
        n = 2**40
        start = time.perf_counter()
        row, = convergence_table(T0, T90, 0.5, [n])
        elapsed = time.perf_counter() - start
        f0 = [Fraction(v) for v in trig_values(0.0)]
        f90 = [Fraction(v) for v in trig_values(math.pi / 2)]
        want = ([(a + b) / 2 for a, b in zip(f0, f90)]
                + [(a - b) * Fraction(-1, 2 * n) for a, b in zip(f0, f90)]
                + [(a + b) / 2 for a, b in zip(f0, f90)])
        assert list(row.params.flat()) == [float(v) for v in want]
        assert elapsed < 0.25, f"runtime {elapsed:.3f}s over budget"

    def test_huge_n_stays_small_in_memory(self):
        rng = random.Random(40)
        t1, t2 = ply_laminate(rng, 28), ply_laminate(rng, 32)
        tracemalloc.start()
        try:
            convergence_table(t1, t2, 0.75, [2**40])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak} bytes"

    def test_validates_every_n_before_any_work(self, monkeypatch):
        monkeypatch.setattr(interleaving, "lamination_parameters",
                            lambda t: pytest.fail("parameters computed before validation"))
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            convergence_table(T0, T90, 0.5, [4, 8, 0])
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            convergence_table(T0, T90, 0.0, [4])
