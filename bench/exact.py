"""Exact rational references for the benchmark's correctness checks.

Every float is a dyadic rational, so the inputs the program reads are
exact rationals. The references below use integer and `Fraction`
arithmetic only. The trig values are the one exception: they are the
same float values the program computes from the same angles
(`math.cos(2.0 * a)`, ...), taken as exact rationals from there. So a
gap between a reported parameter and its reference is the program's own
round-off and construction error, nothing else.

Stdlib only; nothing here imports the package under test.
"""

import math
from fractions import Fraction

U = 2.0 ** -53  # unit round-off of IEEE double
VERDICT_TOL = 1e-12  # the package's default verdict tolerance


def sum_tolerance(terms: int) -> float:
    """Accepted gap for a value that the program sums over `terms` pieces.

    The package's verdict tolerance plus the recursive-summation forward
    error bound (Higham, ch. 4), (n - 1) u sum|x_i| <= 4 n u here: every
    parameter is a sum whose absolute terms add up to at most 1, and each
    term carries a few roundings of its own.
    """
    return VERDICT_TOL + 4.0 * U * terms


def trig(angle: float) -> tuple[float, float, float, float]:
    """(cos 2a, cos 4a, sin 2a, sin 4a), evaluated as the program does."""
    return (math.cos(2.0 * angle), math.cos(4.0 * angle),
            math.sin(2.0 * angle), math.sin(4.0 * angle))


def _combine_sums(sums_by_angle: dict, scale_bits: int) -> list[Fraction]:
    """12 parameters [A1..A4, B1..B4, D1..D4] from per-angle integer
    sums of (hi^j - lo^j), j = 1, 2, 3, over the common scale 2^scale_bits.

    xi_a = 1/2 sum f (hi - lo), xi_b = 1/2 sum f (hi^2 - lo^2) and
    xi_d = 1/2 sum f (hi^3 - lo^3): the prefactors 1/2, 1, 3/2 cancel
    the moment denominators 1, 2, 3.
    """
    out = [Fraction(0)] * 12
    for angle, (s1, s2, s3) in sums_by_angle.items():
        tv = [Fraction(v) for v in trig(angle)]
        for j, s in enumerate((s1, s2, s3)):
            moment = Fraction(s, 2 << (scale_bits * (j + 1)))
            for k in range(4):
                out[4 * j + k] += tv[k] * moment
    return out


def laminate_params(breakpoints: list[float], angles: list[float]) -> list[Fraction]:
    """Exact twelve lamination parameters of a step laminate (angles in
    radians), grouped by distinct angle and summed in integers."""
    ratios = [b.as_integer_ratio() for b in breakpoints]
    scale_bits = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (scale_bits - den.bit_length() + 1) for num, den in ratios]
    sums: dict = {}
    for i, angle in enumerate(angles):
        lo, hi = ints[i], ints[i + 1]
        s = sums.get(angle)
        if s is None:
            s = sums[angle] = [0, 0, 0]
        lo2, hi2 = lo * lo, hi * hi
        s[0] += hi - lo
        s[1] += hi2 - lo2
        s[2] += hi2 * hi - lo2 * lo
    return _combine_sums(sums, scale_bits)


def blend(p: list[Fraction], q: list[Fraction], weight_on_first: Fraction) -> list[Fraction]:
    return [weight_on_first * a + (1 - weight_on_first) * b for a, b in zip(p, q)]


def _power_sums(k: int) -> tuple[int, Fraction, Fraction]:
    """sum_{i<k} i^m for m = 0, 1, 2."""
    return k, Fraction(k * (k - 1), 2), Fraction((k - 1) * k * (2 * k - 1), 6)


def _first_part_moment(x: Fraction, n: int, alpha: Fraction, j: int) -> Fraction:
    """G_j(x) = integral_{-1}^{x} z^j chi(z) dz, where chi marks the first
    fraction alpha of each of the n equal cells of [-1, 1]."""
    h = Fraction(2, n)
    w = alpha * h
    k = min(n, math.floor((x + 1) / h))
    p0, p1, p2 = _power_sums(k)
    # sum over full cells i < k of ((c_i + w)^(j+1) - c_i^(j+1)) / (j+1)
    # with c_i = -1 + i h, expanded in powers of c_i.
    c_pow = (Fraction(p0), -p0 + h * p1, p0 - 2 * h * p1 + h * h * p2)
    total = sum(math.comb(j + 1, m) * c_pow[m] * w ** (j + 1 - m)
                for m in range(j + 1)) / (j + 1)
    if k < n:
        c = -1 + k * h
        top = min(x, c + w)
        if top > c:
            total += (top ** (j + 1) - c ** (j + 1)) / (j + 1)
    return total


def interleave_params(lam1, lam2, alpha: Fraction, n: int) -> list[Fraction]:
    """Exact parameters of the n-th interleaved laminate: in each of the n
    equal cells the first fraction alpha takes lam1's angle, the rest
    lam2's. lam = (breakpoints, angles in radians). O(plies) per n."""
    raw = [Fraction(0)] * 12
    prefactors = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    for lam, first in ((lam1, True), (lam2, False)):
        bps, angles = lam
        exact_bps = [Fraction(b) for b in bps]
        g = [[_first_part_moment(b, n, alpha, j) for j in range(3)] for b in exact_bps]
        for i, angle in enumerate(angles):
            lo, hi = exact_bps[i], exact_bps[i + 1]
            tv = [Fraction(v) for v in trig(angle)]
            for j in range(3):
                part = g[i + 1][j] - g[i][j]
                if not first:
                    part = (hi ** (j + 1) - lo ** (j + 1)) / (j + 1) - part
                for k in range(4):
                    raw[4 * j + k] += tv[k] * part
    return [prefactors[idx // 4] * v for idx, v in enumerate(raw)]


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1, a, b >= 0
    (the AtCoder Library recurrence, O(log m))."""
    ans = 0
    while True:
        if a >= m:
            ans += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            ans += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return ans
        n, b = divmod(y_max, m)
        m, a = a, m


def count_in_region(y: Fraction, lo: Fraction, hi: Fraction, last: int) -> int:
    """#{1 <= n <= last : lo < frac(n*y) < hi}, exactly, in O(log den(y))."""
    p, q = (y % 1).numerator, (y % 1).denominator
    first = math.floor(lo * q) + 1  # smallest residue r with r/q > lo
    top = math.ceil(hi * q) - 1  # largest residue r with r/q < hi
    first, top = max(first, 0), min(top, q - 1)
    if last < 1 or first > top:
        return 0

    def at_least(c: int) -> int:
        # [r >= c] = floor((n p + q - c)/q) - floor(n p / q) for 0 <= c <= q
        return floor_sum(last, q, p, p + q - c) - floor_sum(last, q, p, p)

    return at_least(first) - at_least(top + 1)


def frac(v: Fraction) -> Fraction:
    return v - math.floor(v)
