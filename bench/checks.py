"""Checks of every operation's output against exact references.

`reference(op)` depends only on the operation's inputs; the runner
builds it before any timed region. `check(op, ref, exit_code, stdout,
out_bytes)` returns a `Verdict`: whether the output is correct and the
largest absolute gap between a reported value and its exact reference.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import exact

HALF_PI = math.pi / 2
# README: dropping slivers thinner than the 1e-12 merge tolerance moves the
# parameters by less than 1e-11.
SLIVER_BOUND = 1e-11


@dataclass
class Verdict:
    ok: bool
    err: float = 0.0  # largest |reported - exact| over the checked values
    reason: str = ""
    notes: dict = field(default_factory=dict)


class Rejected(Exception):
    """An output that fails a check."""


def _radians(lam):
    bps, degs = lam
    return bps, [math.radians(a) for a in degs]


def reference(op) -> dict:
    lams = [_radians(lam) for lam in op.inputs]
    if op.kind == "params":
        return {"params": exact.laminate_params(*lams[0])}
    if op.kind == "combine":
        p1, p2 = (exact.laminate_params(*lam) for lam in lams)
        return {"target": exact.blend(p1, p2, 1 - Fraction(op.alpha))}
    if op.kind == "gsequence":
        alpha = Fraction(op.alpha)
        p1, p2 = (exact.laminate_params(*lam) for lam in lams)
        limit = exact.blend(p1, p2, alpha)
        rows = {}
        for n in op.n_list:
            got = exact.interleave_params(lams[0], lams[1], alpha, n)
            rows[n] = [abs(a - b) for a, b in zip(got, limit)]
        return {"residuals": rows}
    return {}


class _Gaps:
    """Largest gap seen; rejects a gap above its tolerance."""

    def __init__(self):
        self.worst = 0.0

    def add(self, what: str, reported, ref: Fraction, tol: float):
        if isinstance(reported, bool) or not isinstance(reported, (int, float, Fraction)):
            raise Rejected(f"{what}: not a number: {reported!r}")
        gap = float(abs(Fraction(reported) - ref))
        self.worst = max(self.worst, gap)
        if not gap <= tol:
            raise Rejected(f"{what}: |{reported!r} - exact| = {gap:.3e} > {tol:.3e}")


def _flat(params: dict) -> list:
    return list(params["xiA"]) + list(params["xiB"]) + list(params["xiD"])


def _expect(cond: bool, what: str):
    if not cond:
        raise Rejected(what)


def _plies(lam) -> int:
    return len(lam[1])


def _check_params(op, ref, doc, gaps, out_bytes):
    payload = doc["payload"]
    plies = _plies(op.inputs[0])
    _expect(payload["ply_count"] == plies, "ply_count differs from the input")
    for i, (v, r) in enumerate(zip(_flat(payload["parameters"]), ref["params"], strict=True)):
        gaps.add(f"parameter {i}", v, r, exact.sum_tolerance(plies))


def _read_laminate(out_bytes: bytes):
    data = json.loads(out_bytes)
    bps, degs = data["breakpoints"], data["angles_deg"]
    _expect(len(degs) == len(bps) - 1, "output file: angle count")
    _expect(bps[0] == -1.0 and bps[-1] == 1.0, "output file: ends are not -1 and 1")
    _expect(all(a < b for a, b in zip(bps, bps[1:])), "output file: not increasing")
    return bps, [math.radians(a) for a in degs]


def _check_combine(op, ref, doc, gaps, out_bytes):
    payload = doc["payload"]
    target = ref["target"]
    plies_out = payload["ply_count"]
    _expect(out_bytes is not None, "no output file written")
    bps, angles = _read_laminate(out_bytes)
    _expect(len(angles) == plies_out, "output file ply count differs from the report")
    built = exact.laminate_params(bps, angles)
    tol_out = exact.sum_tolerance(plies_out)
    tol_in = exact.sum_tolerance(max(_plies(lam) for lam in op.inputs))
    actual = _flat(payload["parameters"])
    expected = _flat(payload["expected"])
    residuals = payload["residuals"]
    _expect(len(residuals) == 12, "residual count")
    for i in range(12):
        gaps.add(f"parameter {i}", actual[i], built[i], tol_out)
        gaps.add(f"expected {i}", expected[i], target[i], tol_in)
        gaps.add(f"residual {i}", residuals[i], abs(built[i] - target[i]), tol_out)
    _expect(payload["max_residual"] == max(residuals), "max_residual is not the max")
    # The verdict must agree with the exact residual of the written
    # laminate, except within the summation error band around the
    # tolerance. A failure that the exact residual confirms, within the
    # documented sliver bound, is a correct output (exit code 1) and is
    # counted as a known defect.
    (verdict,) = doc["verdicts"]
    _expect(verdict["name"] == "combination_residual"
            and verdict["value"] == payload["max_residual"]
            and verdict["tolerance"] == exact.VERDICT_TOL, f"verdict {verdict!r}")
    _expect(verdict["passed"] is (verdict["value"] <= verdict["tolerance"]),
            f"verdict passed={verdict['passed']!r} at value {verdict['value']!r}")
    exact_max = float(max(abs(b - t) for b, t in zip(built, target)))
    band = tol_out - exact.VERDICT_TOL
    if verdict["passed"]:
        _expect(exact_max <= exact.VERDICT_TOL + band,
                f"verdict passes an exact residual of {exact_max:.3e}")
        return {}
    _expect(exact.VERDICT_TOL - band < exact_max <= SLIVER_BOUND + band,
            f"verdict fails an exact residual of {exact_max:.3e}")
    return {"combine_verdict_failed": 1}


def _check_gsequence(op, ref, doc, gaps, out_bytes):
    rows = doc["payload"]["rows"]
    _expect([row["n"] for row in rows] == list(op.n_list), "rows do not match --n")
    plies = sum(_plies(lam) for lam in op.inputs)
    for row in rows:
        n = row["n"]
        exact_res = ref["residuals"][n]
        tol = exact.sum_tolerance(2 * n + plies)
        for key, part in (("residual_a", exact_res[0:4]), ("residual_b", exact_res[4:8]),
                          ("residual_d", exact_res[8:12]), ("residual_max", exact_res)):
            gaps.add(f"n={n} {key}", row[key], max(part), tol)


def _check_oscillate(op, ref, doc, gaps, out_bytes):
    payload = doc["payload"]
    rational = isinstance(op.x, Fraction)
    y = (Fraction(op.x) + 1) / 2
    alpha = Fraction(op.alpha)
    # The float path refuses points within BOUNDARY_TOL = 1e-12 of a region
    # edge, so an n skipped there is not a missed witness.
    shrink = Fraction(0) if rational else Fraction(2e-12)
    for key, lo, hi in (("below", Fraction(0), alpha), ("above", alpha, Fraction(1))):
        witnesses = payload[key]
        _expect(len(witnesses) == op.count, f"{key}: {len(witnesses)} witnesses")
        prev = 0
        for k, (n, reported) in enumerate(witnesses, start=1):
            _expect(isinstance(n, int) and n > prev, f"{key}: n not increasing")
            prev = n
            value = exact.frac(n * y)
            _expect(lo < value < hi, f"{key}: n={n} has frac {value} outside ({lo}, {hi})")
            missed = exact.count_in_region(y, lo + shrink, hi - shrink, n - 1)
            _expect(missed <= k - 1, f"{key}: n={n} is not among the first {k} witnesses")
            if rational:
                _expect(Fraction(reported) == value, f"{key}: n={n} reports {reported}")
            else:
                gaps.add(f"{key} n={n} fraction", reported, value, exact.VERDICT_TOL)
    undefined = payload["undefined_at"]
    for n in undefined:
        _expect(exact.frac(n * y) in (0, alpha), f"undefined_at lists defined n={n}")
    _expect(payload["angle1"] == 0.0 and payload["angle2"] == HALF_PI, "source values")
    _expect(payload["distinct_values"] is True, "distinct_values")
    if rational and undefined:
        # Known gap, reported but not failed: undefined_at is documented as
        # the multiples of 2*den(x), not every undefined index.
        return {"undefined_at_missing": _missing_undefined(y, alpha, max(undefined), undefined)}
    return {}


def _missing_undefined(y: Fraction, alpha: Fraction, last: int, listed) -> int:
    q = y.denominator
    truth = set(range(q, last + 1, q))
    if (alpha * q).denominator == 1:
        first = (int(alpha * q) * pow(y.numerator, -1, q)) % q
        truth.update(range(first or q, last + 1, q))
    return len(truth - set(listed))


_CHECKS = {
    "params": _check_params,
    "combine": _check_combine,
    "gsequence": _check_gsequence,
    "oscillate": _check_oscillate,
}


def check(op, ref, exit_code: int, stdout: bytes, out_bytes: bytes | None) -> Verdict:
    """Parseable --json output, every reported value within its tolerance
    of the exact reference, and the exit code the report calls for: 0 if
    every verdict passes, 1 if one fails. Only combine may fail a verdict,
    and only where the exact residual of its output confirms the failure."""
    if exit_code not in (0, 1):
        return Verdict(False, reason=f"exit code {exit_code}")
    gaps = _Gaps()
    try:
        doc = json.loads(stdout)
        passed = doc["passed"]
        _expect(doc["operation"] == op.kind, f"operation {doc['operation']!r}")
        _expect(passed is all(v["passed"] for v in doc["verdicts"]),
                f"passed={passed!r} disagrees with the verdicts")
        _expect(exit_code == (0 if passed else 1), f"exit code {exit_code}, passed={passed}")
        _expect(passed or op.kind == "combine", "a verdict failed")
        notes = _CHECKS[op.kind](op, ref, doc, gaps, out_bytes) or {}
    except Rejected as exc:
        return Verdict(False, gaps.worst, str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, gaps.worst, f"malformed output: {exc!r}")
    return Verdict(True, gaps.worst, notes=notes)
