"""Shared builders and oracles for randomized and property-based tests.

The oracles here share no code with the kernel they check: their moments
are exact `Fraction`s or a midpoint rule, never the package's float
moments. The exact references take the package's trig floats exactly
(`trig_values`); the midpoint rule evaluates its own with `math`."""

import bisect
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from lamconvex import (
    LamParams,
    StepLaminate,
    UndefinedAtBreakpoint,
    lamination_parameters,
)


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


def trig_values(angle) -> tuple[float, float, float, float]:
    """(cos 2a, cos 4a, sin 2a, sin 4a), the floats the package's kernel
    uses: the in-plane parameters of a one-ply laminate are its trig
    values, bit for bit (moment 2.0 times prefactor 0.5), except that a
    -0.0 comes out as 0.0."""
    return lamination_parameters(StepLaminate((-1.0, 1.0), (angle,))).xi_a


def exact_moments(lo, hi) -> tuple[Fraction, Fraction, Fraction]:
    """(hi - lo, (hi^2 - lo^2)/2, (hi^3 - lo^3)/3) in exact arithmetic:
    integral(z^j dz) over (lo, hi) for j = 0, 1, 2."""
    lo, hi = Fraction(lo), Fraction(hi)
    return tuple((hi ** (j + 1) - lo ** (j + 1)) / (j + 1) for j in range(3))


def midpoint_moments(lo, hi, samples) -> tuple[float, float, float]:
    """Composite midpoint rule with `samples` points for integral(z^j dz)
    over (lo, hi), j = 0, 1, 2. The rule is exact for j <= 1; for j = 2 it
    is low by (hi - lo) * h^2 / 12 with h = (hi - lo) / samples."""
    h = (hi - lo) / samples
    z = lo + h * (np.arange(samples) + 0.5)
    return h * samples, h * float(z.sum()), h * float((z * z).sum())


def quadrature_parameters(t, samples) -> LamParams:
    """The twelve parameters of t by the composite midpoint rule, with
    `samples` points per interval (samples never straddle a breakpoint),
    and the trig values in `math`: an independent cross-check of
    `lamination_parameters` that converges to it like samples^-2."""
    sums = np.zeros((3, 4))
    for lo, hi, a in zip(t.breakpoints, t.breakpoints[1:], t.angles):
        trig = (math.cos(2.0 * a), math.cos(4.0 * a), math.sin(2.0 * a), math.sin(4.0 * a))
        sums += np.multiply.outer(midpoint_moments(lo, hi, samples), trig)
    return LamParams(*(tuple((p * row).tolist()) for p, row in zip((0.5, 1.0, 1.5), sums)))


def _power_sums(t):
    """(bits, sums): every breakpoint of t is a dyadic rational, and times
    2^bits an integer; per distinct angle, sums holds the integer sums of
    hi^j - lo^j (j = 1, 2, 3) over its intervals at that scale."""
    ratios = [b.as_integer_ratio() for b in t.breakpoints]
    bits = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (bits - den.bit_length() + 1) for num, den in ratios]
    sums: dict = {}
    for lo, hi, angle in zip(ints, ints[1:], t.angles):
        s = sums.setdefault(angle, [0, 0, 0])
        s[0] += hi - lo
        s[1] += hi * hi - lo * lo
        s[2] += hi * hi * hi - lo * lo * lo
    return bits, sums


def exact_parameters(t) -> list[Fraction]:
    """The twelve parameters [A1..A4, B1..B4, D1..D4] of t as exact
    rationals, from the integer sums of `_power_sums`. The trig values
    are the floats the package computes (`trig_values`), taken exactly
    from there, so a gap to this reference is summation and moment
    round-off.
    """
    bits, sums = _power_sums(t)
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


def exact_weighted_moments(t, f) -> tuple[Fraction, Fraction, Fraction]:
    """integral f(theta(z)) z^j dz for j = 0, 1, 2 as exact rationals, for
    any float function f, from the integer sums of `_power_sums`; each
    value f(angle) is taken exactly."""
    bits, sums = _power_sums(t)
    return tuple(sum(Fraction(f(angle)) * Fraction(s[j], (j + 1) << (bits * (j + 1)))
                     for angle, s in sums.items())
                 for j in range(3))


def interleave_value(t1, t2, alpha, n, x):
    """Value of the n-th interleaved laminate at x without building it:
    the pointwise oracle for `interleave` and `oscillation_witness`.

    x is classified exactly, float or not: the partition point test is an
    equality of rationals.

    Raises:
        UndefinedAtBreakpoint: if x falls on a partition point of the
            interleaving, or on a breakpoint of the source laminate.
        ValueError: unless 0 < alpha < 1, -1 < x < 1 and n is an integer
            >= 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not -1 < x < 1:
        raise ValueError(f"x = {x} outside (-1, 1)")
    frac = n * ((Fraction(x) + 1) / 2) % 1
    if frac == 0 or frac == alpha:
        raise UndefinedAtBreakpoint(f"interleaving undefined at x = {x} for n = {n}")
    source = t1 if frac < alpha else t2
    return source.value_at(float(x))


def exact_interleaved_parameters(t1, t2, alpha, n) -> list[Fraction]:
    """The twelve parameters of the ideal n-th interleaving of t1 and t2
    as exact rationals, by brute force.

    Cell i of [-1, 1] gives its first fraction alpha to t1 and the rest
    to t2. Each part is cut at its source's breakpoints, and every piece
    adds its `exact_moments`. The trig values are the package's floats,
    taken exactly, as in `exact_parameters`.
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
                for j, value in enumerate(exact_moments(a, b)):
                    m[j] += value
    out = [Fraction(0)] * 12
    for angle, m in moments.items():
        tv = [Fraction(v) for v in trig_values(angle)]
        for j, prefactor in enumerate((Fraction(1, 2), Fraction(1), Fraction(3, 2))):
            for k in range(4):
                out[4 * j + k] += prefactor * tv[k] * m[j]
    return out


def combine_reference(t1, t2, alpha):
    """convex_combine as one scalar loop over the regions where both
    inputs' angles are constant.

    Each input's angle on a ply is the first angle of the ply's run of
    angles that compare equal (`==`), so a run mixing 0.0 and -0.0 has
    its first zero throughout. The refinement is the sorted union of both
    breakpoint sets (of 0.0 and -0.0, t1's is kept), and each input's
    angle on an interval is looked up by bisection at its left edge (a
    midpoint can round onto the right edge of an interval one float step
    wide). Neighbouring refinement intervals whose angle pairs compare
    equal join into one region. A region whose angles agree is one piece
    with t1's angle. Any other region gets one matched split, by the
    package's formula written out with no ordering check, with the input
    of the smaller weight on the matched set E: four (right, angle)
    pieces [E, rest, E, rest] with E anchored at the region's left end
    or, when the last piece emitted so far has rest's angle, the mirror
    [rest, E, rest, E] with E anchored at its right end. A piece is kept
    when its right edge lies above the last kept edge; a kept piece whose
    angle equals (`==`) the last kept angle extends that piece instead.
    """
    if alpha == 0.0 or 1.0 - alpha == 1.0:
        return t1
    if alpha == 1.0:
        return t2
    f = alpha if alpha < 0.5 else 1.0 - alpha
    root = math.sqrt(8.0 * (2.0 - f) * (1.0 + f))
    if f < 0.5:
        w = 6.0 * f * (1.0 - f) / (root + 4.0 - 8.0 * f)
    else:
        w = (8.0 * f - 4.0 + root) / 12.0
    c = (2.0 - f) / 3.0
    run_firsts = []
    for t in (t1, t2):
        angles = []
        for a in t.angles:
            angles.append(angles[-1] if angles and angles[-1] == a else a)
        run_firsts.append(StepLaminate(t.breakpoints, tuple(angles)))
    union = sorted(set(t1.breakpoints) | set(t2.breakpoints))
    regions = []  # [lo, hi, t1's angle, t2's angle]
    for lo, hi in zip(union, union[1:]):
        ang1, ang2 = (t.angles[bisect.bisect_right(t.breakpoints, lo) - 1] for t in run_firsts)
        if regions and regions[-1][2] == ang1 and regions[-1][3] == ang2:
            regions[-1][1] = hi
        else:
            regions.append([lo, hi, ang1, ang2])
    pieces = []
    for lo, hi, ang1, ang2 in regions:
        if ang1 == ang2:
            pieces.append((hi, ang1))
            continue
        e, rest = (ang2, ang1) if alpha < 0.5 else (ang1, ang2)
        length = hi - lo
        if pieces and pieces[-1][1] == rest:
            pieces += [(hi - (c + w) * length, rest), (hi - c * length, e),
                       (hi - (f - w) * length, rest), (hi, e)]
        else:
            pieces += [(lo + (f - w) * length, e), (lo + c * length, rest),
                       (lo + (c + w) * length, e), (hi, rest)]
    edges, angles = [-1.0], []
    for right, angle in pieces:
        if right > edges[-1]:
            if angles and angle == angles[-1]:
                edges[-1] = right
            else:
                edges.append(right)
                angles.append(angle)
    return StepLaminate(tuple(edges), tuple(angles))


def laminate_to_dict(t, name=None) -> dict:
    """The content of a laminate file as a dict: the reference that
    `save_laminate`'s bytes are checked against, as `json.dump` of it at
    indent=2 plus a newline."""
    data = {
        "breakpoints": list(t.breakpoints),
        "angles_deg": [math.degrees(a) for a in t.angles],
    }
    if name is not None:
        data["name"] = name
    return data


def max_param_diff(p, q) -> float:
    return max(abs(a - b) for a, b in zip(p.flat(), q.flat()))


def params_within_bounds(t, slack=1e-12) -> bool:
    return max(abs(v) for v in lamination_parameters(t).flat()) <= 1.0 + slack


angles_strategy = st.floats(min_value=-math.pi, max_value=math.pi,
                            allow_nan=False, allow_infinity=False)


@st.composite
def laminates(draw, max_plies=6):
    """Laminate strategy with interior breakpoints on a 1e-3 grid."""
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
    points, some with a neighbour 1e-15 to 1e-11 above them."""
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


@st.composite
def float_laminates(draw, max_plies=7):
    """Laminate strategy with interior breakpoints at full float
    resolution, some with a neighbour one float step (math.nextafter)
    above them, and some with a neighbour 1e-15 to 1e-2 above them."""
    points = draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        min_size=0, max_size=(max_plies - 1) // 2, unique=True))
    gaps = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=-15.0, max_value=-2.0).map(lambda e: 10.0**e)),
        min_size=len(points), max_size=len(points)))
    paired = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    neighbours = (math.nextafter(p, 1.0) if g == 0.0 else p + g
                  for p, g, q in zip(points, gaps, paired) if q)
    interior = sorted({*points, *(b for b in neighbours if b < 1.0)})
    angles = tuple(draw(st.lists(angles_strategy, min_size=len(interior) + 1,
                                 max_size=len(interior) + 1)))
    return StepLaminate((-1.0, *interior, 1.0), angles)
