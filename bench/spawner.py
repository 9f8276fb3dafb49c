"""Runs the benchmark's child processes and reports, per child, its wall
time, exit code and peak resident set.

On Linux a child's ru_maxrss starts from the peak RSS of the process
that spawned it, so a child of the benchmark itself (which holds the
exact references) would report the benchmark's memory. This helper
stays small, so the peak it reports is the child's own.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "env",
"stdout", "stderr", "timeout"}, and one JSON reply per line on stdout,
{"wall", "exit", "maxrss_kib"}. The wall time runs from spawn to exit.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"],
                                cwd=req["cwd"])
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"wall": wall, "exit": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
