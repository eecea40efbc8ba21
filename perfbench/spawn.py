"""Lean launcher for the cold-start and batch spawns.

Linux counts the RSS of the process a child was spawned from into the
child's ru_maxrss, so a spawn made straight from the benchmark (numpy,
models and samples loaded) would report the benchmark's memory. This
process imports nothing but the standard modules below and stays far
smaller than any deployment, so the peak RSS that os.wait4 reports is the
child's own. It starts one child at a time, per JSON line on stdin:

  {"argv": [...], "env": {...}, "log": file}
  -> {"ns": spawn-to-exit wall time, "status": exit code, "maxrss_kb": peak,
      "probe_ns": [host-speed probe before, after]}

The child's stdout and stderr go to `log`. The probes (probe.spawn_ns) run
from this process, around the spawn and outside its timing.
"""

import json
import os
import sys
import time

from probe import spawn_ns


def run_one(cmd: dict) -> dict:
    fd = os.open(cmd["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    before = spawn_ns()
    try:
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(cmd["argv"][0], cmd["argv"], cmd["env"],
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
        _, status, usage = os.wait4(pid, 0)
        ns = time.perf_counter_ns() - t0
    finally:
        os.close(fd)
    return {"ns": ns, "status": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss, "probe_ns": [before, spawn_ns()]}


def main() -> int:
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd.get("op") == "exit":
            break
        try:
            reply = run_one(cmd)
        except OSError as e:
            reply = {"error": str(e)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
