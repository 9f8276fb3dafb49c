"""Tests of the benchmark itself: python -m pytest bench"""

import filecmp
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import exact
import run
import workloads
from tracing import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _cli():
    return run.load_cli()


def _outputs(ops):
    cli = _cli()
    return [run.run_inprocess(cli, op) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    one, two, other = tmp_path / "one", tmp_path / "two", tmp_path / "other"
    for d in (one, two, other):
        d.mkdir()
    ops1 = workloads.build(name, 7, str(one))
    ops2 = workloads.build(name, 7, str(two))
    ops3 = workloads.build(name, 8, str(other))
    files = sorted(os.listdir(one))
    assert files == sorted(os.listdir(two))
    _, mismatch, errors = filecmp.cmpfiles(one, two, files, shallow=False)
    assert not mismatch and not errors
    strip = lambda ops, d: [[a.replace(str(d), "") for a in op.argv] for op in ops]
    assert strip(ops1, one) == strip(ops2, two)
    contents = lambda d: [(d / f).read_bytes() for f in sorted(os.listdir(d))]
    assert (contents(one), strip(ops1, one)) != (contents(other), strip(ops3, other))


def test_floor_sum_and_region_count_match_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        n, m, a, b = (rng.randint(0, 30), rng.randint(1, 20),
                      rng.randint(0, 40), rng.randint(0, 40))
        assert exact.floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))
    for _ in range(300):
        q = rng.randint(2, 60)
        y = Fraction(rng.randint(1, 3 * q), q)
        lo = Fraction(rng.randint(0, 50), 100)
        hi = lo + Fraction(rng.randint(1, 100 - int(lo * 100)), 100)
        last = rng.randint(0, 200)
        brute = sum(lo < exact.frac(k * y) < hi for k in range(1, last + 1))
        assert exact.count_in_region(y, lo, hi, last) == brute


def _brute_interleave(lam1, lam2, alpha, n):
    """Exact parameters by integrating every piece of every cell."""
    raw = [Fraction(0)] * 12
    pts = [Fraction(b) for b in lam1[0][1:-1] + lam2[0][1:-1]]
    for i in range(n):
        c = Fraction(-1) + Fraction(2 * i, n)
        mid = c + alpha * Fraction(2, n)
        for (lo, hi), lam in (((c, mid), lam1), ((mid, c + Fraction(2, n)), lam2)):
            cuts = sorted({lo, hi, *[p for p in pts if lo < p < hi]})
            for a, b in zip(cuts, cuts[1:]):
                centre = float((a + b) / 2)
                k = max(j for j, v in enumerate(lam[0]) if v < centre)
                tv = [Fraction(v) for v in exact.trig(lam[1][k])]
                for j in range(3):
                    m = (b ** (j + 1) - a ** (j + 1)) / (j + 1)
                    for t in range(4):
                        raw[4 * j + t] += tv[t] * m
    pre = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    return [pre[i // 4] * v for i, v in enumerate(raw)]


def test_exact_parameters_match_direct_fraction_sums():
    lam1 = ([-1.0, -0.3, 0.1, 0.55, 1.0], [0.0, 0.7, -0.4, 1.2])
    lam2 = ([-1.0, 0.2, 1.0], [math.pi / 2, 0.3])
    for alpha, n in ((Fraction(1, 4), 1), (Fraction(0.3), 5), (Fraction(1, 2), 8)):
        assert exact.interleave_params(lam1, lam2, alpha, n) == _brute_interleave(
            lam1, lam2, alpha, n)
    bps, angles = lam1
    direct = [Fraction(0)] * 12
    for i, a in enumerate(angles):
        lo, hi = Fraction(bps[i]), Fraction(bps[i + 1])
        for j in range(3):
            for t, f in enumerate(exact.trig(a)):
                direct[4 * j + t] += Fraction(f) * (hi ** (j + 1) - lo ** (j + 1)) / 2
    assert exact.laminate_params(bps, angles) == direct


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("small")
    ops = workloads.build("cli-small", 3, str(workdir))
    refs = [checks.reference(op) for op in ops]
    outs = _outputs(ops)
    return ops, refs, outs


def _verdict(op, ref, code, stdout):
    out_bytes = Path(op.out).read_bytes() if op.out else None
    return checks.check(op, ref, code, stdout, out_bytes)


def test_checker_accepts_the_program_outputs(small):
    ops, refs, outs = small
    for op, ref, (_, code, stdout) in zip(ops, refs, outs):
        verdict = _verdict(op, ref, code, stdout)
        assert verdict.ok, (op.argv, verdict.reason)
        assert verdict.err < 1e-13


def _corrupt(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc["payload"])
    return json.dumps(doc).encode()


def test_checker_rejects_a_corrupted_parameter(small):
    ops, refs, outs = small
    i = next(k for k, op in enumerate(ops) if op.kind == "params")

    def bump(payload):
        payload["parameters"]["xiD"][2] += 1e-9

    assert not _verdict(ops[i], refs[i], 0, _corrupt(outs[i][2], bump)).ok
    j = next(k for k, op in enumerate(ops) if op.kind == "gsequence")

    def bump_row(payload):
        payload["rows"][-1]["residual_b"] *= 1.0 + 1e-6

    assert not _verdict(ops[j], refs[j], 0, _corrupt(outs[j][2], bump_row)).ok


def test_checker_rejects_an_out_of_region_witness(small):
    ops, refs, outs = small
    i = next(k for k, op in enumerate(ops) if op.kind == "oscillate")
    q = ops[i].props["q"]

    def move(payload):
        n, _ = payload["below"][0]
        payload["below"][0] = [n + q, payload["below"][0][1]]  # same fraction, later n

    def swap(payload):
        payload["below"][-1] = payload["above"][-1]

    assert not _verdict(ops[i], refs[i], 0, _corrupt(outs[i][2], move)).ok
    assert not _verdict(ops[i], refs[i], 0, _corrupt(outs[i][2], swap)).ok
    assert not _verdict(ops[i], refs[i], 3, b"").ok


def test_checker_accepts_a_verdict_failure_only_where_exact_residuals_confirm_it(
        tmp_path, small):
    # The refinement interval (0, 2e-12) splits into pieces narrower than
    # the merge tolerance, which are dropped: the written laminate misses
    # its target by 1.5e-12, above the 1e-12 verdict tolerance.
    lams = [([-1.0, 0.0, 1.0], [0.0, 90.0]), ([-1.0, 2e-12, 1.0], [45.0, -45.0])]
    files = [workloads._write(str(tmp_path), f"{tag}.json", {"breakpoints": b, "angles_deg": a})
             for tag, (b, a) in zip("ab", lams)]
    out = str(tmp_path / "mix.json")
    op = workloads.Op("combine", ["combine", *files, "--alpha", "0.25", "--out", out, "--json"],
                      inputs=lams, alpha=0.25, out=out)
    ref = checks.reference(op)
    _, code, stdout = run.run_inprocess(_cli(), op)
    assert code == 1
    verdict = _verdict(op, ref, code, stdout)
    assert verdict.ok, verdict.reason
    assert verdict.notes == {"combine_verdict_failed": 1}
    assert not _verdict(op, ref, 0, stdout).ok

    def claim_pass(doc):
        doc["passed"] = doc["verdicts"][0]["passed"] = True

    assert not _verdict(op, ref, 0, _edit(stdout, claim_pass)).ok
    ops, refs, outs = small
    i = next(k for k, op in enumerate(ops) if op.kind == "combine")

    def claim_fail(doc):
        doc["passed"] = doc["verdicts"][0]["passed"] = False

    assert outs[i][1] == 0
    assert not _verdict(ops[i], refs[i], 1, _edit(outs[i][2], claim_fail)).ok


def _edit(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc).encode()


def test_tracing_wrappers_are_removed_after_the_traced_run(small):
    ops, _, _ = small
    cli = _cli()
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("lamconvex")}
    step = sys.modules["lamconvex.step"]
    members = dict(vars(step.StepLaminate))
    tracer = Tracer()
    with tracer:
        for op in ops:
            run.run_inprocess(cli, op)
            tracer.finish_op()
    after = {name: dict(vars(sys.modules[name])) for name in before}
    assert all(after[n][k] is v for n in before for k, v in before[n].items())
    assert dict(vars(step.StepLaminate)) == members
    layers = tracer.self_times()
    assert set(layers) == set(LAYERS) == set(run.LAYER_COUNTS)
    assert abs(sum(s for _, s in layers.values()) - tracer.root_wall()) < 1e-9


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(150 * 2 ** 20)  # the benchmark process grows large
    ballast[::4096] = b"x" * len(ballast[::4096])
    spawner = run.Spawner(tmp_path)
    try:
        _, code, maxrss_kib, _ = spawner.run([sys.executable, "-c", "pass"], dict(os.environ), "t")
    finally:
        spawner.close()
    assert code == 0 and maxrss_kib < 100 * 2 ** 10
    del ballast


def _final_line(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-small", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _final_line(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
