"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured figure (run with `pytest -s` to see them live)."""

import math
import random
import time
from fractions import Fraction
from operator import add

import numpy as np
import pytest

from lamconvex import (
    StepLaminate,
    UndefinedAtBreakpoint,
    congruence_solutions,
    convergence_table,
    convex_combine,
    interleave,
    lamination_parameters,
    load_laminate,
    matched_split,
    oscillation_witness,
    save_laminate,
    verify_combination,
)
from lamconvex.cli import main as cli_main

from _helpers import (
    exact_moments,
    interleave_value,
    max_param_diff,
    ply_laminate,
    quadrature_parameters,
    random_laminate,
)

BOUND_SLACK = 1e-12
U = 2.0**-53  # unit round-off of IEEE double

T0 = StepLaminate((-1.0, 1.0), (0.0,))
T90 = StepLaminate((-1.0, 1.0), (math.pi / 2,))

# every parameter set computed anywhere in this suite lands here and is
# re-checked against the [-1, 1] bound by test_parameter_bounds
_SEEN_PARAMS = []


def record(params):
    _SEEN_PARAMS.append(params)
    assert max(abs(v) for v in params.flat()) <= 1.0 + BOUND_SLACK
    return params


def test_convexity_identity():
    rng = random.Random(2024_01)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        t1 = random_laminate(rng, max_plies=8)
        t2 = random_laminate(rng, max_plies=8)
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
            result = convex_combine(t1, t2, alpha)
            report = verify_combination(t1, t2, alpha, result, tolerance=1e-12)
            record(report.actual)
            assert report.passed, (alpha, report.max_residual)
            worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] convexity-identity: PASS "
          f"(1000 combinations, max residual {worst:.3e}, {elapsed:.2f}s)")


def test_split_moment_matching():
    rng = random.Random(2024_02)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        lo, hi = sorted((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        alpha = rng.uniform(0.001, 0.999)
        b, c, d = matched_split(lo, hi, alpha)
        assert lo < b < c < d < hi
        # exact moments of the float split points: the error is the split's
        whole = exact_moments(lo, hi)
        matched = tuple(map(add, exact_moments(lo, b), exact_moments(c, d)))
        for got, want in zip(matched, whole):
            err = abs(got - Fraction(alpha) * want)
            assert err <= 1e-12 * max(1, abs(want))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] split-moment-matching: PASS "
          f"(1000 splits, max moment error {worst:.3e}, {elapsed:.2f}s)")


def test_split_feasibility():
    start = time.perf_counter()
    alphas = np.linspace(1e-9, 1.0 - 1e-9, 100_000)
    # on (0, 1) the split points are the coefficients b < c < d themselves;
    # the gaps b, c - b, d - c and 1 - d are each positive in exact
    # arithmetic for every fraction in (0, 1)
    smallest = math.inf
    for alpha in alphas.tolist():
        b, c, d = matched_split(0.0, 1.0, alpha)
        gap = min(b, c - b, d - c, 1.0 - d)
        assert gap > 0.0
        smallest = min(smallest, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] split-feasibility: PASS "
          f"(100000 weights, smallest gap {smallest:.3e}, {elapsed:.2f}s)")


def test_oracle_equivalence():
    rng = random.Random(2024_04)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        t = random_laminate(rng, max_plies=16)
        exact = record(lamination_parameters(t))
        approx = quadrature_parameters(t, 10**5)
        worst = max(worst, max_param_diff(exact, approx))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] oracle-equivalence: PASS "
          f"(100 laminates, max |exact - quadrature| {worst:.3e}, {elapsed:.2f}s)")


def test_oscillation_witnesses():
    start = time.perf_counter()
    x = Fraction(-1, 2)
    table = oscillation_witness(T0, T90, 0.5, x, 5)
    assert len(table.below) >= 5
    assert len(table.above) >= 5
    for n, frac in table.below:
        assert isinstance(frac, Fraction) and Fraction(0) < frac < Fraction(1, 2)
    for n, frac in table.above:
        assert isinstance(frac, Fraction) and Fraction(1, 2) < frac < Fraction(1)
    q = x.denominator
    for k in range(1, 6):
        with pytest.raises(UndefinedAtBreakpoint):
            interleave_value(T0, T90, 0.5, 2 * q * k, x)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] oscillation-witnesses: PASS "
          f"(below {[n for n, _ in table.below]}, above {[n for n, _ in table.above]}, "
          f"undefined {list(table.undefined_at)}, {elapsed:.2f}s)")


def test_bezout_certificates():
    start = time.perf_counter()
    checked = 0
    for q in range(2, 51):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            for j in range(1, q):
                for n, i in congruence_solutions(p, q, j, 3):
                    assert n * p - q * i == j
                    assert 0 <= i <= n - 1
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] bezout-certificates: PASS "
          f"({checked} certificates, {elapsed:.2f}s)")


def test_interleaving_convergence():
    start = time.perf_counter()
    ns = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    rows = convergence_table(T0, T90, 0.5, ns)
    for row in rows:
        record(row.params)
        assert row.residual_a <= 1e-12, (row.n, row.residual_a)
        bd = max(row.residual_b, row.residual_d)
        assert bd > 0.0, row.n
    for prev, cur in zip(rows, rows[1:]):
        if prev.n >= 64:
            ratio = max(cur.residual_b, cur.residual_d) / max(prev.residual_b,
                                                              prev.residual_d)
            assert 0.3 <= ratio <= 0.7, (prev.n, cur.n, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] interleaving-convergence: PASS "
          f"(n up to 4096, final distance {rows[-1].residual_max:.3e}, {elapsed:.2f}s)")


def test_interleaving_at_scale():
    rng = random.Random(2024_10)
    t1, t2 = ply_laminate(rng, 28), ply_laminate(rng, 32)
    ns = [2**k for k in range(10, 18)]
    start = time.perf_counter()
    rows = convergence_table(t1, t2, 0.75, ns)
    elapsed = time.perf_counter() - start
    for row in rows:
        record(row.params)
    # the distance shrinks like 1/n: ask for a 16-fold drop over 128-fold n
    assert rows[-1].residual_max <= rows[0].residual_max / 16
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over budget"
    print(f"\n[acceptance] interleaving-at-scale: PASS "
          f"(28/32 plies, n up to {ns[-1]}, final distance {rows[-1].residual_max:.3e}, "
          f"{elapsed:.2f}s)")


def test_interleave_matches_closed_form_at_scale():
    """`interleave` builds what the closed form describes, at 2^18 pieces.

    The built laminate differs from the ideal one only where it rounds a
    cell edge. For a power-of-two n the cell starts -1 + 2i/n are exact,
    and each of the n edges left + 2*alpha/n moves by at most u. Moving an
    edge by d between two plies changes a parameter by at most 3d
    (prefactor 3/2 times |f1 - f2| <= 2 times z^2 <= 1). The kernel adds
    at most 4u per piece (the recursive-summation bound of
    bench/exact.py). The sum of the two is the bound. It holds only if no
    source breakpoint gave way to a part edge, which the test checks
    first: no interior source breakpoint equals a part start. ROADMAP
    item 4 measured 1.7e-12 at n = 2^17 on a benchmark pair, with the
    former kernel; this pair stays near 6e-17.
    """
    rng = random.Random(2024_10)
    t1, t2 = ply_laminate(rng, 28), ply_laminate(rng, 32)
    ns = [2**k for k in range(10, 18)]
    for n in ns:
        left = [-1.0 + (2.0 * i) / n for i in range(n)]
        starts = set(left) | {x + 2.0 * 0.75 / n for x in left}
        assert starts.isdisjoint(t1.breakpoints[1:-1] + t2.breakpoints[1:-1]), n
    rows = convergence_table(t1, t2, 0.75, ns)
    start = time.perf_counter()
    worst = 0.0
    for row in rows:
        built = interleave(t1, t2, 0.75, row.n)
        gap = max_param_diff(record(lamination_parameters(built)), row.params)
        bound = 3.0 * U * row.n + 4.0 * U * built.ply_count
        assert gap <= bound, (row.n, gap, bound)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] interleave-at-scale: PASS "
          f"(28/32 plies, n up to {ns[-1]}, worst gap to the closed form {worst:.3e}, "
          f"{elapsed:.2f}s)")


def test_cli_round_trip(tmp_path, capsys):
    rng = random.Random(2024_09)
    t = random_laminate(rng, max_plies=8)
    path = tmp_path / "roundtrip.json"
    save_laminate(t, path)
    reloaded = load_laminate(path)
    diff = max_param_diff(record(lamination_parameters(t)),
                          record(lamination_parameters(reloaded)))
    assert diff <= 1e-14

    f0 = tmp_path / "zero.json"
    f90 = tmp_path / "ninety.json"
    save_laminate(T0, f0)
    save_laminate(T90, f90)
    code = cli_main(["combine", str(f0), str(f90), "--alpha", "0.5",
                     "--out", str(tmp_path / "mix.json")])
    capsys.readouterr()
    assert code == 0
    print(f"\n[acceptance] cli-round-trip: PASS "
          f"(param drift {diff:.3e}, combine exit 0)")


def test_parameter_bounds():
    rng = random.Random(2024_08)
    worst = 0.0
    for _ in range(1000):
        t = random_laminate(rng, max_plies=16)
        worst = max(worst, max(abs(v) for v in record(lamination_parameters(t)).flat()))
    for params in _SEEN_PARAMS:
        assert max(abs(v) for v in params.flat()) <= 1.0 + BOUND_SLACK
    print(f"\n[acceptance] parameter-bounds: PASS "
          f"({len(_SEEN_PARAMS)} parameter sets, max |component| {worst:.12f})")
