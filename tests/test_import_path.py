"""numpy is loaded by the first array-kernel call, not by the import.

Each check runs in a fresh interpreter: this test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, cwd) -> object:
    """Run code in a fresh interpreter with the package on its path and
    return the JSON value of its last line of output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
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


def test_params_loads_numpy(tmp_path):
    path = tmp_path / "ply.json"
    path.write_text(json.dumps({"breakpoints": [-1, 1], "angles_deg": [45]}))
    argv = ["params", str(path), "--json"]
    assert run_python(CLI.format(argv=argv), tmp_path) == [0, True]


THREADS = """
import json, math, sys, threading
from lamconvex import StepLaminate, lamination_parameters

plies = 1000
t = StepLaminate(tuple(-1.0 + 2.0 * i / plies for i in range(plies + 1)),
                 tuple(math.radians((0, 45, -45, 90)[i % 4]) for i in range(plies)))
assert 'numpy' not in sys.modules
start = threading.Barrier(4)
results = [None] * 4

def work(k):
    start.wait()
    results[k] = [v.hex() for v in lamination_parameters(t).flat()]

threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
serial = [v.hex() for v in lamination_parameters(t).flat()]
print(json.dumps([results, serial]))
"""


def test_first_numpy_use_from_four_threads(tmp_path):
    results, serial = run_python(THREADS, tmp_path)
    assert results == [serial] * 4
