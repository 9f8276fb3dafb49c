import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from lamconvex import StepLaminate, lamination_parameters

from _helpers import (
    exact_parameters,
    laminates,
    max_param_diff,
    ply_laminate,
    quadrature_parameters,
    random_laminate,
)


def test_zero_angle_constant():
    p = lamination_parameters(StepLaminate((-1.0, 1.0), (0.0,)))
    assert p.xi_a == (1.0, 1.0, 0.0, 0.0)
    assert p.xi_b == (0.0, 0.0, 0.0, 0.0)
    assert p.xi_d == (1.0, 1.0, 0.0, 0.0)


def test_quarter_turn_constant():
    p = lamination_parameters(StepLaminate((-1.0, 1.0), (math.pi / 4,)))
    for got, want in zip(p.flat(), (0, -1, 1, 0, 0, 0, 0, 0, 0, -1, 1, 0)):
        assert got == pytest.approx(want, abs=1e-15)


def test_two_ply_cross():
    # 0 degrees on (-1, 0), 90 degrees on (0, 1): hand summation over the
    # two intervals, cross-checked by the quadrature oracle below.
    t = StepLaminate((-1.0, 0.0, 1.0), (0.0, math.pi / 2))
    p = lamination_parameters(t)
    expected = (0, 1, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0)
    for got, want in zip(p.flat(), expected):
        assert got == pytest.approx(want, abs=1e-15)
    oracle = quadrature_parameters(t, 10**5)
    assert max_param_diff(p, oracle) <= 1e-9


class TestQuadratureOracle:
    def test_constant_zero_any_samples(self):
        # the z^0 weight is summed exactly at any sample count; the z^2
        # weight needs samples to resolve
        t = StepLaminate((-1.0, 1.0), (0.0,))
        for samples in (1, 7, 100):
            p = quadrature_parameters(t, samples)
            assert p.xi_a == pytest.approx((1.0, 1.0, 0.0, 0.0), abs=1e-12)
            assert p.xi_b == pytest.approx((0.0,) * 4, abs=1e-12)

    def test_constant_quarter_turn(self):
        # the midpoint error on the z^2 weight is exactly
        # 1.5 * 2 * h^2 * 2 / 24 = 1e-6 at h = 2/1000, met with equality
        t = StepLaminate((-1.0, 1.0), (math.pi / 4,))
        diff = max_param_diff(quadrature_parameters(t, 1000), lamination_parameters(t))
        assert diff == pytest.approx(1e-6, rel=1e-6)
        assert diff <= 1.001e-6

    def test_converges_on_random_laminates(self):
        rng = random.Random(31)
        for _ in range(25):
            t = random_laminate(rng, max_plies=16)
            diff = max_param_diff(quadrature_parameters(t, 10**5),
                                  lamination_parameters(t))
            assert diff <= 1e-8


def test_bounds_on_random_laminates():
    rng = random.Random(77)
    for _ in range(1000):
        t = random_laminate(rng, max_plies=16)
        assert max(abs(v) for v in lamination_parameters(t).flat()) <= 1.0 + 1e-12


def test_many_thin_pieces_stay_near_exact():
    # 2^16 pieces at full float resolution: each width-proportional moment
    # is within a few u of its own size, so what is left is summation
    # round-off (2.8e-17 measured); moments taken as differences of
    # rounded powers put this laminate 6.0e-15 off. The second laminate
    # gives every ply its own angle, the worst case for the kernel's
    # per-angle sums, over twelve blocks of 2048 plies (the kernel's
    # block size) and 5 plies more.
    rng = random.Random(2)
    interior = sorted(rng.uniform(-1.0, 1.0) for _ in range(2**16 - 1))
    angles = tuple(math.radians(rng.choice((0.0, 30.0, 45.0, -60.0, 90.0)))
                   for _ in range(2**16))
    few = StepLaminate((-1.0, *interior, 1.0), angles)
    plies = 3 * 8192 + 5
    interior = sorted(rng.uniform(-1.0, 1.0) for _ in range(plies - 1))
    distinct = StepLaminate((-1.0, *interior, 1.0),
                            tuple(rng.uniform(-math.pi, math.pi) for _ in range(plies)))
    assert len(set(distinct.angles)) == plies
    for t in (few, distinct):
        got = lamination_parameters(t).flat()
        worst = max(abs(float(want - g)) for want, g in zip(exact_parameters(t), got))
        assert worst <= 5e-16, worst


def test_transient_memory_is_one_block():
    # the kernel holds one block's moments and index lists at a time,
    # about 0.54 MB whatever the ply count
    t = ply_laminate(random.Random(3), 75_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lamination_parameters(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1_000_000, f"kernel peaked {(peak - before) / 1e6:.2f} MB"


@settings(max_examples=60)
@given(laminates())
def test_half_turn_periodicity(t):
    shifted = StepLaminate(t.breakpoints, tuple(a + math.pi for a in t.angles))
    assert max_param_diff(lamination_parameters(t),
                          lamination_parameters(shifted)) <= 1e-12


@settings(max_examples=60)
@given(laminates())
def test_mirror_flips_coupling_block(t):
    # the laminate reflected through z = 0, with the stacking reversed
    reflected = StepLaminate(tuple(-b for b in reversed(t.breakpoints)),
                             tuple(reversed(t.angles)))
    p = lamination_parameters(t)
    m = lamination_parameters(reflected)
    for got, want in zip(m.xi_a, p.xi_a):
        assert got == pytest.approx(want, abs=1e-12)
    for got, want in zip(m.xi_b, p.xi_b):
        assert got == pytest.approx(-want, abs=1e-12)
    for got, want in zip(m.xi_d, p.xi_d):
        assert got == pytest.approx(want, abs=1e-12)
