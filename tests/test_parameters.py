import math
import random

import pytest
from hypothesis import given, settings

from lamconvex import StepLaminate, lamination_parameters

from _helpers import laminates, max_param_diff, quadrature_parameters, random_laminate


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
