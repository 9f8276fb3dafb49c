"""The package runs on the standard library alone: no import and no
subcommand loads numpy, nor dataclasses, inspect or typing, which cost
start-up time on every command. Only `oscillate`, whose witness search
works in exact rationals, loads fractions (and with it decimal).

Each check runs in a fresh interpreter: this test process has numpy
loaded already (the test oracles use it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, cwd, *options: str) -> object:
    """Run code in a fresh interpreter, given the interpreter options,
    with the package on its path and return the JSON value of its last
    line of output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *options, "-c", code], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


CLI = """
import contextlib, io, json, sys
from lamconvex.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, 'numpy' in sys.modules]))
"""


def test_import_does_not_load_numpy(tmp_path):
    assert run_python("import json, sys, lamconvex; "
                      "print(json.dumps('numpy' in sys.modules))", tmp_path) is False


def test_oscillate_does_not_load_numpy(tmp_path):
    argv = ["oscillate", "--x=-1/3", "--alpha", "0.5", "--json"]
    assert run_python(CLI.format(argv=argv), tmp_path) == [0, False]


SUBCOMMANDS = """
import contextlib, io, json, sys
before = set(sys.modules)
sys.modules['numpy'] = None  # any import of numpy now raises ImportError
from lamconvex.cli import main
codes = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


def subcommand_argvs(tmp_path) -> list[list[str]]:
    """Command lines of `params`, `combine --out`, `gsequence` and
    `oscillate`, the first three on two 2-ply files written to tmp_path."""
    ply1, ply2 = tmp_path / "a.json", tmp_path / "b.json"
    ply1.write_text(json.dumps({"breakpoints": [-1, 0, 1], "angles_deg": [0, 90]}))
    ply2.write_text(json.dumps({"breakpoints": [-1, 0.25, 1], "angles_deg": [45, -45]}))
    return [
        ["params", str(ply1), "--json"],
        ["combine", str(ply1), str(ply2), "--alpha", "0.3",
         "--out", str(tmp_path / "out.json"), "--json"],
        ["gsequence", str(ply1), str(ply2), "--alpha", "0.3", "--n", "4,64", "--json"],
        ["oscillate", "--x=-1/3", "--alpha", "0.5", "--json"],
    ]


def run_subcommands(tmp_path, argvs, *options: str) -> tuple[list[int], list[str]]:
    """Exit codes of the command lines run through `main` in one fresh
    interpreter, and the modules loaded from the start of the script on."""
    return run_python(SUBCOMMANDS.format(argvs=argvs), tmp_path, *options)


def test_every_subcommand_runs_with_numpy_blocked(tmp_path):
    codes, _ = run_subcommands(tmp_path, subcommand_argvs(tmp_path))
    assert codes == [0, 0, 0, 0]
    assert json.loads((tmp_path / "out.json").read_text())["breakpoints"][0] == -1.0


def test_no_subcommand_loads_dataclasses_inspect_or_typing(tmp_path):
    # -S: no site module, which on some installs loads typing by itself
    codes, loaded = run_subcommands(tmp_path, subcommand_argvs(tmp_path), "-S")
    assert codes == [0, 0, 0, 0]
    assert {"lamconvex.cli", "argparse", "fractions"} <= set(loaded)
    assert not {"dataclasses", "inspect", "typing"} & set(loaded)


@pytest.mark.parametrize("command", ["params", "combine", "gsequence", "oscillate"])
def test_only_oscillate_loads_fractions_and_decimal(tmp_path, command):
    # each subcommand alone, import of the CLI included; -S as above
    argv = next(a for a in subcommand_argvs(tmp_path) if a[0] == command)
    codes, loaded = run_subcommands(tmp_path, [argv], "-S")
    assert codes == [0]
    if command == "oscillate":
        assert "fractions" in loaded
    else:
        assert not {"fractions", "decimal"} & set(loaded)


THREADS = """
import json, math, sys, threading
from lamconvex import StepLaminate, lamination_parameters

plies = 1000
t = StepLaminate(tuple(-1.0 + 2.0 * i / plies for i in range(plies + 1)),
                 tuple(math.radians((0, 45, -45, 90)[i % 4]) for i in range(plies)))
start = threading.Barrier(4)
results = [None] * 4

def work(k):
    start.wait()
    results[k] = [v.hex() for v in lamination_parameters(t).flat()]

threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
    assert not thread.is_alive()
serial = [v.hex() for v in lamination_parameters(t).flat()]
print(json.dumps([results, serial]))
"""


def test_kernel_calls_from_four_threads_match_a_serial_call(tmp_path):
    results, serial = run_python(THREADS, tmp_path)
    assert results == [serial] * 4
