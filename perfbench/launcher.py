"""Runs and times Python commands for the benchmark, from a process of its own.

A child's ``ru_maxrss`` starts from the peak RSS of the process that
spawned it, so a command spawned straight from the benchmark would report
the benchmark's own peak, which grows while it generates and checks the
long-campaign input.  This process stays small, so what ``os.wait4`` reports for its
children is theirs alone: the largest RSS of the command and of the pool
workers it reaped, not their sum.

Protocol: one JSON object ``{"argv": [...], "cwd": "..."}`` per line on
standard input; one JSON object ``{"seconds", "maxrss_mb", "code"}`` per
line on standard output.  ``argv`` follows the Python interpreter, as in
``["-m", "spectropy", "analyze", ...]``.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120


def run(argv, cwd) -> dict:
    with open(os.path.join(cwd, "stderr.txt"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd, stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return {"seconds": seconds, "maxrss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        print(json.dumps(run(job["argv"], job["cwd"])), flush=True)


if __name__ == "__main__":
    main()
