"""Runs the benchmark's commands from a small process.

A child's max RSS, as ``wait4`` reports it, includes the memory of the
process that spawned it, counted at exec. Commands spawned straight from
the benchmark, which holds explored models, would report the benchmark's
memory. So the benchmark starts this process early and sends it one JSON
request per line on stdin:
``{"argv": [...], "cwd": dir, "stdout": path, "stderr": path}``.
For each request it replies with one JSON line on stdout:
``{"wall_s": float, "exit": int, "maxrss_kb": int}``.
It exits at end of input.
"""
import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                cwd=req["cwd"])
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "exit": proc.returncode,
                      "maxrss_kb": usage.ru_maxrss}), flush=True)
