"""lamconvex benchmark: CLI process latency, exact-reference accuracy and
traced per-layer self time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src, never
from an installed copy; every child process gets PYTHONPATH=src.

--trace 0: a closed loop with one client runs `python -m lamconvex ...`
as one process per operation, in whole passes over the workload's
operation list until S seconds have passed. It reports the end-to-end
metrics.

--trace 1: the same operation list runs in-process through
`lamconvex.cli.main(argv)`, each op once untraced and once traced, and
reports per-layer self times and counts per pass over the list, plus the
tracing overhead.

Every output is checked against an exact rational reference. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics. The line before it is the run record.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PROBE_REPEATS = 5
OP_TIMEOUT_S = 120.0

# A fixed pure-Python process that runs right after every operation. This
# machine's speed drifts by +-20% over minutes and jumps between a fast
# and a slow phase within seconds. An operation and the reference that
# follows it mostly share a phase, so each operation's wall time is
# divided by its own reference's ("ref" units), which stays steady where
# raw seconds do not. The reference never imports the package, so no
# change to it can move "ref".
REF_CODE = "s = 0\nfor i in range(1_500_000):\n    s += i * i\n"

END_TO_END = {
    "op_wall_ref.p50": "ref",
    "ops_per_ref": "1/ref",
    "ops_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# layer -> extra per-layer counts, beyond calls and self_s
LAYER_COUNTS = {
    "cli.main": (),
    "fileio.load_laminate": ("bytes",),
    "fileio.save_laminate": ("bytes",),
    "step.validate": ("plies",),
    "step.refine": ("intervals_out",),
    "step.merge_close": ("values_in", "values_out"),
    "step.from_pieces": ("pieces_in", "plies_out", "kept_ratio"),
    "parameters.lamination_parameters": ("plies", "ns_per_ply"),
    "convexity.matched_split": (),
    "convexity.convex_combine": ("agree_ratio",),
    "convexity.verify_combination": (),
    "interleaving.interleave": ("pieces_out",),
    "interleaving.convergence_table": (),
    "interleaving.find_n_in_region": ("n_scanned_rational", "n_scanned_float"),
    "interleaving.oscillation_witness": (),
}
COUNT_UNITS = {"bytes": "B", "kept_ratio": "ratio", "agree_ratio": "ratio",
               "ns_per_ply": "ns/ply"}


def per_layer_units() -> dict:
    units = {"cli.import_s": "s", "cli.interpreter_s": "s", "check.param_err_max": "abs",
             "check.combine_verdict_failed": "count"}
    for layer, extra in LAYER_COUNTS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for name in extra:
            units[f"{layer}.{name}"] = COUNT_UNITS.get(name, "count")
    units.update({"trace.wall_untraced_s": "s", "trace.wall_traced_s": "s",
                  "trace.overhead_ratio": "ratio", "trace.self_coverage": "ratio"})
    return units


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Spawner:
    """Runs child processes in `workdir` through bench/spawner.py, which
    stays small so that each child's peak RSS is its own."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, env: dict, tag: str) -> tuple:
        """(wall seconds from spawn to exit, exit code, max RSS in KiB,
        stdout bytes) of one child process."""
        out_path = self.workdir / f"{tag}.stdout"
        request = {"argv": argv, "cwd": str(self.workdir), "env": env,
                   "stdout": str(out_path), "stderr": str(self.workdir / f"{tag}.stderr"),
                   "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["exit"], reply["maxrss_kib"], out_path.read_bytes()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)


def lamconvex_argv(op) -> list:
    return [sys.executable, "-m", "lamconvex", *op.argv]


class Checker:
    """Checks outputs; an output identical to one already checked for the
    same op reuses that verdict."""

    def __init__(self, ops, refs):
        self.ops, self.refs = ops, refs
        self.seen = {}  # op index -> (digest, verdict)
        self.failures = []
        self.notes = {}

    def __call__(self, i: int, exit_code: int, stdout: bytes) -> checks.Verdict:
        op = self.ops[i]
        out_bytes = None
        if op.out is not None and os.path.exists(op.out):
            out_bytes = Path(op.out).read_bytes()
        digest = hashlib.sha256(
            b"%d\0%s\0%s" % (exit_code, stdout, out_bytes or b"")).hexdigest()
        cached = self.seen.get(i)
        if cached is not None and cached[0] == digest:
            verdict = cached[1]
        else:
            verdict = checks.check(op, self.refs[i], exit_code, stdout, out_bytes)
            self.seen[i] = (digest, verdict)
            for key, value in verdict.notes.items():
                self.notes[key] = self.notes.get(key, 0) + value
        if not verdict.ok and len(self.failures) < 10:
            self.failures.append(f"op {i} ({op.kind}): {verdict.reason}")
        return verdict

    def err_max(self) -> float:
        return max((v.err for _, v in self.seen.values()), default=0.0)


def remove_output(op):
    if op.out is not None and os.path.exists(op.out):
        os.remove(op.out)


def probe(spawner: Spawner, env: dict, code: str) -> tuple:
    wall, exit_code, _, stdout = spawner.run([sys.executable, "-c", code], env, "probe")
    if exit_code != 0:
        raise SystemExit(f"bench: probe {code!r} exited with {exit_code}")
    return wall, stdout


def setup(name: str, seed: int, workdir: Path, warm_up) -> tuple:
    """Generate the inputs and run one untimed warm-up op, SETUP_REPEATS
    times; return (ops, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.build(name, seed, str(workdir))
        warm_up(ops[0])
        times.append(time.perf_counter() - start)
    return ops, statistics.median(times)


def closed_loop(ops, seconds: float, spawner: Spawner, env: dict, checker: Checker) -> dict:
    """Whole passes over ops until `seconds` have passed, at least one, so
    every run weighs each operation equally. Each op is followed by one
    run of the reference process."""
    walls, refs, rss, ok = [], [], [], 0
    start = time.perf_counter()
    i = 0
    while i == 0 or i % len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        remove_output(op)
        wall, exit_code, maxrss, stdout = spawner.run(lamconvex_argv(op), env, "op")
        walls.append(wall)
        rss.append(maxrss)
        ok += checker(i % len(ops), exit_code, stdout).ok
        refs.append(spawner.run([sys.executable, "-c", REF_CODE], dict(os.environ), "ref")[0])
        i += 1
    return {"walls": walls, "refs": refs, "rss_kib": rss, "ok": ok}


def run_inprocess(cli, op) -> tuple:
    """(wall seconds, exit code, stdout bytes) of cli.main(op.argv)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        wall = time.perf_counter() - start
    return wall, code, buf.getvalue().encode()


def traced_passes(cli, ops, seconds: float, checker: Checker) -> dict:
    """Passes over ops until `seconds` have passed, at least one. Each op
    runs once untraced and once traced, back to back, with the order
    flipped from one op to the next so that neither side always runs on
    a warmer heap."""
    untraced, traced, ratios, layer_stats = [], [], [], []
    attempted = ok = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        tracer = Tracer()
        walls = [0.0, 0.0]  # untraced, traced
        for i, op in enumerate(ops):
            pair = [0.0, 0.0]
            for use_tracer in ((False, True), (True, False))[(len(traced) + i) % 2]:
                remove_output(op)
                if use_tracer:
                    with tracer:
                        wall, code, stdout = run_inprocess(cli, op)
                    tracer.finish_op()
                else:
                    wall, code, stdout = run_inprocess(cli, op)
                pair[use_tracer] = wall
                attempted += 1
                ok += checker(i, code, stdout).ok
            walls[0] += pair[0]
            walls[1] += pair[1]
            ratios.append(pair[1] / pair[0])
        untraced.append(walls[0])
        traced.append(walls[1])
        layer_stats.append((tracer.self_times(), dict(tracer.counts), tracer.root_wall()))
    return {"untraced": untraced, "traced": traced, "ratios": ratios, "layers": layer_stats,
            "attempted": attempted, "ok": ok}


def layer_metrics(result: dict) -> dict:
    """Per-layer values per pass over the op list: self times are medians
    over the traced passes, counts come from the first traced pass (they
    repeat exactly)."""
    stats = result["layers"]
    selfs, counts, _ = stats[0]
    out = {}
    for layer, extra in LAYER_COUNTS.items():
        out[f"{layer}.calls"] = selfs.get(layer, (0, 0.0))[0]
        self_s = statistics.median(s.get(layer, (0, 0.0))[1] for s, _, _ in stats)
        out[f"{layer}.self_s"] = self_s
        got = {name: value for (lay, name), value in counts.items() if lay == layer}
        for name in extra:
            out[f"{layer}.{name}"] = got.get(name, 0)
        if layer == "step.from_pieces":
            pieces = got.get("pieces_in", 0)
            out[f"{layer}.kept_ratio"] = got.get("plies_out", 0) / pieces if pieces else 0.0
        elif layer == "parameters.lamination_parameters":
            plies = got.get("plies", 0)
            out[f"{layer}.ns_per_ply"] = self_s * 1e9 / plies if plies else 0.0
        elif layer == "convexity.convex_combine":
            intervals = got.get("intervals", 0)
            out[f"{layer}.agree_ratio"] = got.get("agree", 0) / intervals if intervals else 0.0
    out["trace.wall_untraced_s"] = statistics.median(result["untraced"])
    out["trace.wall_traced_s"] = statistics.median(result["traced"])
    # median over ops of traced / untraced wall: robust to a stall in either run
    out["trace.overhead_ratio"] = statistics.median(result["ratios"]) - 1.0
    out["trace.self_coverage"] = statistics.median(
        root / wall for (_, _, root), wall in zip(stats, result["traced"]))
    return out


def quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lamconvex" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'lamconvex'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(workdir)
    try:
        record, outcome = measure(args, workdir, spawner)
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(outcome))
    return 0


def measure(args, workdir: Path, spawner: Spawner) -> tuple:
    env = child_env()
    load_start = os.getloadavg()
    spec = workloads.WORKLOADS[args.workload]
    _, found = probe(spawner, env, "import json, sys, lamconvex; m = sys.modules.get('numpy'); "
                     "print(json.dumps([lamconvex.__file__, m and m.__version__]))")
    lamconvex_file, numpy_version = json.loads(found)
    if not Path(lamconvex_file).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported {lamconvex_file}, not the tree's own src")
    record = {
        "workload": args.workload, "why": spec.why, "varies": spec.varies,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "lamconvex_file": lamconvex_file,
        "client": "closed loop, 1 client" if not args.trace else "in-process, 1 thread",
    }

    if args.trace:
        cli = load_cli()
        ops = workloads.build(args.workload, args.seed, str(workdir))
        refs = [checks.reference(op) for op in ops]
        checker = Checker(ops, refs)
        imports = [probe(spawner, env, "import lamconvex")[0] for _ in range(PROBE_REPEATS)]
        bare = [probe(spawner, env, "pass")[0] for _ in range(PROBE_REPEATS)]
        run_inprocess(cli, ops[0])  # warm-up
        result = traced_passes(cli, ops, args.seconds, checker)
        metrics = {"cli.import_s": statistics.median(imports),
                   "cli.interpreter_s": statistics.median(bare),
                   "check.param_err_max": checker.err_max(),
                   "check.combine_verdict_failed": checker.notes.get("combine_verdict_failed", 0)}
        metrics.update(layer_metrics(result))
        units = per_layer_units()
        attempted, ok = result["attempted"], result["ok"]
        record["passes"] = len(result["traced"])
    else:
        def warm_up(op):
            remove_output(op)
            spawner.run(lamconvex_argv(op), env, "warmup")

        ops, setup_s = setup(args.workload, args.seed, workdir, warm_up)
        refs = [checks.reference(op) for op in ops]
        checker = Checker(ops, refs)
        loop = closed_loop(ops, args.seconds, spawner, env, checker)
        walls, attempted, ok = loop["walls"], len(loop["walls"]), loop["ok"]
        ref_s = statistics.median(loop["refs"])
        in_refs = [wall / ref for wall, ref in zip(walls, loop["refs"])]
        metrics = {
            "op_wall_ref.p50": statistics.median(in_refs),
            "ops_per_ref": ok / sum(in_refs),
            "ops_ok_ratio": ok / attempted,
            "peak_rss_mb": max(loop["rss_kib"]) / 1024.0,
            "setup_s": setup_s,
        }
        units = END_TO_END
        record["samples"] = attempted
        record["ops_failed_ratio"] = (attempted - ok) / attempted
        record["ref_wall_s"] = ref_s
        record["op_wall_s.p50"] = statistics.median(walls)
        record["ops_per_s"] = ok / sum(walls)
        # p90 needs ten samples beyond it
        record["op_wall_s.p90"] = quantile(walls, 0.9) if attempted >= 100 else None
        record["op_wall_s.min"] = min(walls)
        record["op_wall_s.by_op"] = [statistics.median(walls[i::len(ops)])
                                     for i in range(len(ops))]
    record.update({
        "param_err_max": checker.err_max(),
        "ops_in_list": len(ops), "inputs": [op.props for op in ops],
        "failures": checker.failures, "known_defects": checker.notes,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    })
    outcome = {
        "correct": ok == attempted, "attempted": attempted, "failed": attempted - ok,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, outcome


def load_cli():
    sys.path.insert(0, str(SRC))
    import lamconvex.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported {cli.__file__}, not the tree's own src")
    return cli


if __name__ == "__main__":
    sys.exit(main())
