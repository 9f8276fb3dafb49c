"""Shared builders for randomized and property-based tests."""

import bisect
import math
from fractions import Fraction

from hypothesis import strategies as st

from lamconvex import StepLaminate, lamination_parameters, trig_values


def random_laminate(rng, max_plies=8, angle_span=math.pi, min_gap=1e-6):
    """Random laminate: uniform interior breakpoints, uniform angles."""
    while True:
        plies = rng.randint(1, max_plies)
        interior = sorted(rng.uniform(-1.0, 1.0) for _ in range(plies - 1))
        bps = [-1.0, *interior, 1.0]
        if all(b - a >= min_gap for a, b in zip(bps, bps[1:])):
            break
    angles = tuple(rng.uniform(-angle_span, angle_span) for _ in range(plies))
    return StepLaminate(tuple(bps), angles)


def ply_laminate(rng, plies, angles_deg=(0.0, 45.0, -45.0, 90.0)):
    """Random laminate with exactly `plies` plies: uniform interior
    breakpoints, angles drawn from a ply table."""
    interior = sorted(rng.uniform(-1.0, 1.0) for _ in range(plies - 1))
    angles = tuple(math.radians(rng.choice(angles_deg)) for _ in range(plies))
    return StepLaminate((-1.0, *interior, 1.0), angles)


def exact_parameters(t) -> list[Fraction]:
    """The twelve parameters [A1..A4, B1..B4, D1..D4] of t as exact
    rationals.

    Every breakpoint is a dyadic rational; scaled by one common power of
    two they become integers, and per distinct angle the sums of
    hi^j - lo^j (j = 1, 2, 3) are taken in integers. The trig values are
    the floats the package computes (`trig_values`), taken exactly from
    there, so a gap to this reference is summation and moment round-off.
    """
    ratios = [b.as_integer_ratio() for b in t.breakpoints]
    bits = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (bits - den.bit_length() + 1) for num, den in ratios]
    sums: dict = {}
    for lo, hi, angle in zip(ints, ints[1:], t.angles):
        s = sums.setdefault(angle, [0, 0, 0])
        s[0] += hi - lo
        s[1] += hi * hi - lo * lo
        s[2] += hi * hi * hi - lo * lo * lo
    out = [Fraction(0)] * 12
    for angle, s in sums.items():
        tv = [Fraction(v) for v in trig_values(angle)]
        for j in range(3):
            # the prefactors 1/2, 1, 3/2 times the moment denominators
            # 1, 2, 3 leave 1/2 for every order
            moment = Fraction(s[j], 2 << (bits * (j + 1)))
            for k in range(4):
                out[4 * j + k] += tv[k] * moment
    return out


def exact_interleaved_parameters(t1, t2, alpha, n) -> list[Fraction]:
    """The twelve parameters of the ideal n-th interleaving of t1 and t2
    as exact rationals, by brute force.

    Cell i of [-1, 1] gives its first fraction alpha to t1 and the rest
    to t2. Each part is cut at its source's breakpoints, and every piece
    adds its exact moments (hi^(j+1) - lo^(j+1))/(j+1) in Fraction. The
    trig values are the package's floats, taken exactly, as in
    `exact_parameters`.
    """
    h = Fraction(2, n)
    w = Fraction(alpha) * h
    edges = [[Fraction(b) for b in t.breakpoints] for t in (t1, t2)]
    moments: dict = {}
    for i in range(n):
        c = -1 + i * h
        for (lo, hi), t, bps in (((c, c + w), t1, edges[0]), ((c + w, c + h), t2, edges[1])):
            cuts = [lo, *(b for b in bps if lo < b < hi), hi]
            for a, b in zip(cuts, cuts[1:]):
                angle = t.angles[bisect.bisect_right(bps, a) - 1]
                m = moments.setdefault(angle, [Fraction(0)] * 3)
                for j in range(3):
                    m[j] += (b ** (j + 1) - a ** (j + 1)) / (j + 1)
    out = [Fraction(0)] * 12
    for angle, m in moments.items():
        tv = [Fraction(v) for v in trig_values(angle)]
        for j, prefactor in enumerate((Fraction(1, 2), Fraction(1), Fraction(3, 2))):
            for k in range(4):
                out[4 * j + k] += prefactor * tv[k] * m[j]
    return out


def max_param_diff(p, q) -> float:
    return max(abs(a - b) for a, b in zip(p.flat(), q.flat()))


def params_within_bounds(t, slack=1e-12) -> bool:
    return max(abs(v) for v in lamination_parameters(t).flat()) <= 1.0 + slack


angles_strategy = st.floats(min_value=-math.pi, max_value=math.pi,
                            allow_nan=False, allow_infinity=False)


@st.composite
def laminates(draw, max_plies=6):
    """Laminate strategy with interior breakpoints on a 1e-3 grid, so
    partitions never collapse under the merge tolerance."""
    plies = draw(st.integers(min_value=1, max_value=max_plies))
    interior = draw(st.lists(
        st.integers(min_value=-999, max_value=999).map(lambda k: k / 1000.0),
        min_size=plies - 1, max_size=plies - 1, unique=True))
    bps = (-1.0, *sorted(interior), 1.0)
    angles = tuple(draw(st.lists(angles_strategy, min_size=plies, max_size=plies)))
    return StepLaminate(bps, angles)


@st.composite
def close_laminates(draw, max_plies=7):
    """Laminate strategy with near-coincident breakpoints: 1e-3 grid
    points, some with a neighbour 1e-15 to 1e-11 above them, so that some
    gaps fall below the 1e-12 merge tolerance and some just above it."""
    grid = draw(st.lists(
        st.integers(min_value=-999, max_value=998).map(lambda k: k / 1000.0),
        min_size=0, max_size=(max_plies - 1) // 2, unique=True))
    gaps = draw(st.lists(st.floats(min_value=-15.0, max_value=-11.0).map(lambda e: 10.0**e),
                         min_size=len(grid), max_size=len(grid)))
    paired = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    interior = sorted({*grid, *(b + g for b, g, p in zip(grid, gaps, paired) if p)})
    angles = tuple(draw(st.lists(angles_strategy, min_size=len(interior) + 1,
                                 max_size=len(interior) + 1)))
    return StepLaminate((-1.0, *interior, 1.0), angles)
