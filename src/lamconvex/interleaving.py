"""The classical interleaving sequence and why it fails pointwise.

Divide [-1, 1] into n equal cells and, inside each cell, take the first
fraction alpha from one laminate and the rest from the other. As n grows
the twelve parameters of the interleaved laminate converge to the
measure-weighted blend of the inputs' parameters, but at any fixed point
where the inputs disagree the value keeps flipping between both sources
forever, so the sequence has no pointwise limit there.

Which source a point x lands in is governed by the fractional part of
n*y with y = (x + 1)/2: strictly below alpha means the first source,
strictly above means the second, and hitting 0 or alpha exactly means x
sits on a partition point, where the interleaved function is undefined.

Every point takes one exact number path and one witness search.
Fraction(x) is exact for int, float and Fraction alike (a float is a
dyadic rational), so y = p/q always, and frac(n*y) = (n*p mod q)/q. The
search takes Euclid's steps on (p, q): O(log q) integer steps, whatever
the size of q. Each witness list recurs with period q, since n and
n + q share a fractional part: its members in [1, q] give every later
one, so a list of any length takes at most one period of searches.

The convergence table builds no laminate. Its rows are the exact
closed-form parameters of the ideal n-th interleaving, correctly rounded
given the trig floats, at O(plies) cost per n whatever n is: per source
breakpoint, the moments of the "first fraction alpha of each cell"
indicator come from power sums over the whole cells below it plus the
one partial cell. The table is worked in integers only, each parameter
an int quotient rounded once, so only the witness search, the one user
of Fraction, imports `fractions`. `interleave` builds the real laminate
for one n.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import cycle
from operator import mul

from ._record import Record
from .errors import SearchCapExceeded
from .parameters import LamParams, _trig_rows, blend, lamination_parameters
from .step import StepLaminate

DEFAULT_SEARCH_CAP = 10_000_000

# Most cells `interleave` builds: about 2^21 pieces, a few hundred MB of floats.
MAX_CELLS = 1 << 20


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _check_n(n: int, most: int | None = None) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if most is not None and n > most:
        raise ValueError(f"n = {n} is above {most}, the most cells interleave builds")


def interleave(t1: StepLaminate, t2: StepLaminate, alpha: float, n: int) -> StepLaminate:
    """The n-th interleaved laminate.

    Cell i spans (-1 + 2i/n, -1 + 2(i+1)/n); its first fraction alpha
    takes t1's values and the remainder takes t2's. Each of the 2n cell
    parts gives, in order, its source's breakpoints strictly inside it,
    then its own end, each with that source's angle on its left, and
    `StepLaminate.from_pieces` reads them in one pass as they are made.
    So a source breakpoint equal to a part edge gives way to the part
    edge, a part that is empty or crossed by round-off holds nothing,
    and no two adjacent pieces share an angle. No list of the pieces is
    built, so the peak memory stays near the result's. The parameters
    differ from the ideal interleaving's by at most
    `_edge_rounding_bound(n)`, through the rounded part edges. An n
    above `MAX_CELLS` raises ValueError before anything is built
    (`convergence_table` takes any n).
    """
    _check_alpha(alpha)
    _check_n(n, most=MAX_CELLS)
    return StepLaminate.from_pieces(_parts(t1, t2, alpha, n))


def _parts(t1: StepLaminate, t2: StepLaminate, alpha: float,
           n: int) -> Iterator[tuple[float, float]]:
    """The (right edge, angle) of each of `interleave`'s pieces, in order."""
    step = 2.0 * alpha / n
    for i in range(n):
        left = -1.0 + (2.0 * i) / n
        mid = left + step
        for t, lo, hi in ((t1, left, mid), (t2, mid, -1.0 + (2.0 * (i + 1)) / n)):
            bps, angles = t.breakpoints, t.angles
            # plies first - 1 .. last - 1 of t meet (lo, hi); the search's
            # upper bound keeps ply first - 1 in range for a part at 1.0
            first = bisect_right(bps, lo, 1, len(bps) - 1)
            last = bisect_left(bps, hi, first)
            yield from zip(bps[first:last], angles[first - 1:last - 1])
            yield hi, angles[last - 1]


def _edge_rounding_bound(n: int) -> float:
    """6 (2n + 1) u, u = 2^-53: how far the rounding of its part edges
    can move a parameter of `interleave(t1, t2, alpha, n)` from that of
    the ideal n-th interleaving, for any inputs, alpha and n <= MAX_CELLS.

    A cell edge -1 + 2i/n is within u of its float: the quotient rounds
    by at most u, and adding -1 is exact (Sterbenz) where the quotient is
    1/2 or more; below, the quotient rounds by u/4 and the sum by u/2. A
    middle edge adds 2 alpha / n, rounded by under 2u/n, and rounds by at
    most u: it is within 2u + 2u/n. The built laminate takes, at each z,
    the source of the first part whose float end lies above z, so it
    differs from the ideal one on a set of measure at most the sum, over
    the 2n - 1 inner part ends, of the largest error up to that end:
    under (4n + 2) u. There a trig value changes by at most 2 and
    |z|^j <= 1, so with the largest prefactor, 3/2, a parameter moves by
    under 3 (4n + 2) u.
    """
    return 6 * (2 * n + 1) * 2.0 ** -53


def _first_multiple(p: int, q: int, lo: int, hi: int) -> int:
    """Smallest k >= 0 with lo <= k*p mod q <= hi, for coprime 0 < p < q
    and 0 <= lo <= hi < q: Euclid's steps on (p, q), O(log q).

    Unless a multiple of p lies in [lo, hi], k*p - m*q hits that range for
    at most one k per m, k = ceil((m*q + lo) / p), growing with m; the
    first m is the same search on (q mod p, p, -hi mod p, -lo mod p). A
    loop, not a recursion: a float's q can take more steps than the
    recursion limit allows.
    """
    stack = []
    while lo and -(-lo // p) * p > hi:
        stack.append((p, q, lo))
        p, q, lo, hi = q % p, p, -hi % p, -lo % p
    k = -(-lo // p)
    for p, q, lo in reversed(stack):
        k = -(-(q * k + lo) // p)
    return k


def _recurring(period: Sequence[int], q: int, indices: Iterable[int]) -> list[int]:
    """Members `indices` (from 0) of the increasing sequence that recurs with
    period q and holds `period` in [1, q]: member i is period[i % r] + (i // r) * q."""
    r = len(period)
    return [period[i % r] + i // r * q for i in indices]


def find_n_in_region(y: Fraction | int | float, lo: float, hi: float,
                     n_min: int = 1, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Smallest n >= n_min whose fractional part of n*y lies strictly in
    (lo, hi), provided it is at most `cap`, the largest index accepted.

    With Fraction(y) % 1 = p/q, frac(n*y) = (n*p mod q)/q, and each
    residue recurs once in any q consecutive n. The admissible residues
    form one range, so the first n is n_min + k for the smallest k >= 0
    that moves n_min*p mod q into it: Euclid's steps on (p, q), O(log q)
    integer steps. The cap bounds the answer, not the work.

    Raises:
        SearchCapExceeded: if (lo, hi) holds no residue r/q, so that no n
            exists, or if the first admissible n exceeds cap (the message
            names it).
        ValueError: for a malformed region or n_min < 1.
    """
    from fractions import Fraction

    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"region must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    frac = Fraction(y) % 1
    p, q = frac.numerator, frac.denominator
    first = math.floor(Fraction(lo) * q) + 1  # smallest residue above lo
    last = math.ceil(Fraction(hi) * q) - 1  # largest residue below hi
    if first > last:
        raise SearchCapExceeded(
            f"no n has fractional part of n*{frac} in ({lo}, {hi}): the region "
            f"contains no multiple of 1/{q}")
    shift = n_min * p % q
    k = 0
    if not first <= shift <= last:
        d = (first - shift) % q
        k = _first_multiple(p, q, d, d + last - first)
    n = n_min + k
    if n > cap:
        raise SearchCapExceeded(
            f"no n in [{n_min}, {cap}] has fractional part of n*{frac} in "
            f"({lo}, {hi}); the first is n = {n}")
    return n


class WitnessTable(Record):
    """Indices certifying that the interleaved value at x keeps taking
    both sources' values.

    below: (n, exact fractional part of n*y) with the part strictly in
        (0, alpha), where the interleaving equals the first source at x.
    above: same for (alpha, 1), where it equals the second source.
    undefined_at: the first indices n <= cap where the interleaving is
        undefined at x, at most `count` of them: n = q = den(y), where
        frac(n*y) = 0, and the one n < q where frac(n*y) = alpha if
        alpha*q is an integer, each recurring with period q. A float x
        has a large power-of-two q, so the cap usually leaves this empty.
    angle1 / angle2: the two sources' values at x, None where undefined.
    """

    __slots__ = ("below", "above", "undefined_at", "angle1", "angle2")
    below: tuple[tuple[int, Fraction | int | float], ...]
    above: tuple[tuple[int, Fraction | int | float], ...]
    undefined_at: tuple[int, ...]
    angle1: float | None
    angle2: float | None

    @property
    def distinct_values(self) -> bool | None:
        """Whether the two sources actually disagree at x (the oscillation
        is vacuous otherwise). None if either value is undefined."""
        if self.angle1 is None or self.angle2 is None:
            return None
        return self.angle1 != self.angle2


def oscillation_witness(t1: StepLaminate, t2: StepLaminate, alpha: float,
                        x: Fraction | int | float, count: int,
                        cap: int = DEFAULT_SEARCH_CAP) -> WitnessTable:
    """The first `count` witness indices of both regions at the point x,
    each at most `cap`, found in exact arithmetic for any x.

    Both regions are non-empty when 1/den((x+1)/2) is below both alpha
    and 1 - alpha; for a float x that denominator is a large power of two.

    Raises:
        SearchCapExceeded: before any search when count > cap, since
            `count` distinct indices n >= 1 cannot all be at most cap; if
            a region holds no residue; or if a region's count-th index is
            above cap, which its indices in [1, q] show before any list is
            built, so after at most one period of searches.
        ValueError: unless 0 < alpha < 1, -1 < x < 1 and count >= 1.
    """
    from fractions import Fraction

    _check_alpha(alpha)
    if not -1 < x < 1:
        raise ValueError(f"x = {x} outside (-1, 1)")
    y = (Fraction(x) + 1) / 2
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > cap:
        raise SearchCapExceeded(
            f"{count} distinct indices per region cannot all be at most cap = {cap}")

    q = y.denominator

    def period(lo: float, hi: float) -> list[int]:
        """The region's indices in [1, q], at most `count` of them, once
        its count-th index is known to be at most cap."""
        found, n = [], 0
        while len(found) < count:
            n = find_n_in_region(y, lo, hi, n_min=n + 1, cap=cap)
            if n > q:
                break
            found.append(n)
        [last] = _recurring(found, q, [count - 1])
        if last > cap:
            raise SearchCapExceeded(
                f"the first {count} n with fractional part of n*{y} in ({lo}, {hi}) "
                f"end at n = {last}, above cap = {cap}")
        return found

    periods = [period(0.0, alpha), period(alpha, 1.0)]
    below, above = (tuple(zip(_recurring(ns, q, range(count)), cycle([n * y % 1 for n in ns])))
                    for ns in periods)
    # frac(n*y) = 0 at n = q; it is alpha at one n in [1, q - 1] when j = alpha*q
    # is an integer, the n with n*p = j (mod q)
    j = Fraction(alpha) * q
    undefined = [j.numerator * pow(y.numerator, -1, q) % q, q] if j.denominator == 1 else [q]
    return WitnessTable(
        below=below,
        above=above,
        undefined_at=tuple(n for n in _recurring(undefined, q, range(count)) if n <= cap),
        angle1=t1.value_at(x),
        angle2=t2.value_at(x),
    )


def _over_power_of_two(rows: Sequence[Sequence[float]]) -> tuple[list[list[int]], int]:
    """The floats of the rows as integers over one power of two, 2^bits,
    and bits: every finite float is a dyadic rational."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    bits = max(den.bit_length() - 1 for r in ratios for _, den in r)
    return [[num << (bits - den.bit_length() + 1) for num, den in r] for r in ratios], bits


def _interleaved_parameters(t1: StepLaminate, t2: StepLaminate,
                            alpha: Fraction | int | float,
                            n_list: Sequence[int]) -> list[LamParams]:
    """Exact parameters of the n-th interleaved laminate for each n, in
    O(plies) integer steps per n, without building it.

    G_j(x) = integral_{-1}^{x} z^j chi_n(z) dz, with chi_n marking the first
    fraction alpha of each of the n cells: the k full cells below x sum in
    closed form over the power sums of i < k (Faulhaber), and the one
    partial cell is added directly. A t1 point carries G(x), a t2 point
    its full moment from -1 less G(x), and each ply adds its right point's
    value less its left point's. Everything is an integer over one scale
    S = 2^bits * n * den(alpha): breakpoints are dyadic, a cell is 2S/n wide
    and its first part alpha times that. Sums of hi^m - lo^m (m = 1, 2, 3)
    are kept per distinct angle. The kernel's trig floats are integers over
    one power of two, 2^tb, so each parameter is one integer sum over one
    integer denominator, which int true division rounds once, correctly.
    """
    a_num, a_den = alpha.as_integer_ratio()
    dyadic, bits = _over_power_of_two([t1.breakpoints, t2.breakpoints])
    angles = list(dict.fromkeys(t1.angles + t2.angles))
    trig, tb = _over_power_of_two(_trig_rows(angles))
    out = []
    for n in n_list:
        unit = n * a_den
        scale = unit << bits
        cell = 2 * a_den << bits
        w = 2 * a_num << bits
        sums = {angle: [0, 0, 0] for angle in angles}
        for t, points, first in ((t1, dyadic[0], True), (t2, dyadic[1], False)):
            g = []
            for x in (p * unit for p in points):
                # the whole cells i < k start at c_i = i*cell - scale, and
                # sum (c_i + w)^m - c_i^m expands in sum c_i and sum c_i^2
                k = min(n, (x + scale) // cell)
                p1, p2 = k * (k - 1) // 2, (k - 1) * k * (2 * k - 1) // 6
                sum_c = cell * p1 - k * scale
                sum_c2 = k * scale * scale - 2 * scale * cell * p1 + cell * cell * p2
                gx = [k * w, 2 * w * sum_c + k * w * w,
                      3 * w * (sum_c2 + w * sum_c) + k * w ** 3]
                c = cell * k - scale  # the partial cell k, cut at x
                top = min(x, c + w)
                if top > c:
                    for m in range(3):
                        gx[m] += top ** (m + 1) - c ** (m + 1)
                g.append(gx if first else [x ** (m + 1) - v for m, v in enumerate(gx)])
            for i, angle in enumerate(t.angles):
                s = sums[angle]
                for m in range(3):
                    s[m] += g[i + 1][m] - g[i][m]
        # the prefactors 1/2, 1, 3/2 times the moment denominators 1, 2, 3
        # leave 1/2 for every order
        flat = []
        for m in range(3):
            col = [s[m] for s in sums.values()]
            den = 2 * scale ** (m + 1) << tb
            flat += [sum(map(mul, row, col)) / den for row in trig]
        out.append(LamParams(tuple(flat[0:4]), tuple(flat[4:8]), tuple(flat[8:12])))
    return out


class ConvergenceRow(Record):
    """The parameters of the n-th interleaved laminate and the
    componentwise distance to the limiting blend.

    params are the exact closed-form parameters of the ideal interleaving,
    correctly rounded given the trig floats and computed at O(plies) cost
    per n; the residuals are taken from them in float.
    """

    __slots__ = ("n", "params", "residuals")
    n: int
    params: LamParams
    residuals: tuple[float, ...]

    @property
    def residual_a(self) -> float:
        return max(self.residuals[0:4])

    @property
    def residual_b(self) -> float:
        return max(self.residuals[4:8])

    @property
    def residual_d(self) -> float:
        return max(self.residuals[8:12])

    @property
    def residual_max(self) -> float:
        return max(self.residuals)


def convergence_table(t1: StepLaminate, t2: StepLaminate,
                      alpha: Fraction | int | float,
                      n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Parameters of the interleaved laminates for each n, with distances
    to the limit.

    Each row holds the exact closed-form parameters of the n-th
    interleaving, correctly rounded given the trig floats, at O(plies)
    cost per n whatever n is: no laminate is built (`interleave` builds
    one). alpha and every n are checked before any work.

    t1 fills fraction alpha of every cell, so the limit weights params(t1)
    by alpha.
    """
    _check_alpha(alpha)
    n_list = tuple(n_list)
    for n in n_list:
        _check_n(n)
    limit = blend(lamination_parameters(t1), lamination_parameters(t2), alpha).flat()
    return [ConvergenceRow(n=n, params=params,
                           residuals=tuple(abs(p - l) for p, l in zip(params.flat(), limit)))
            for n, params in zip(n_list, _interleaved_parameters(t1, t2, alpha, n_list))]
