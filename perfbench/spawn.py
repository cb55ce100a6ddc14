"""Run one command; report its exit code, wall time and own peak RSS.

    python3 -S perfbench/spawn.py FD COMMAND ARG...

The report, "code wall_s maxrss_kb", is written to file descriptor FD.
Linux carries the resident set of the spawning process into a child's
ru_maxrss, so the benchmark spawns every measured process from this small
interpreter (started with -S) rather than from itself, whose memory grows
with the answers it collects.  The child finds its spawn time, as
time.monotonic(), in the PERFBENCH_SPAWNED environment variable.
"""

import os
import sys
import time


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    env = dict(os.environ)
    start = time.monotonic()
    env["PERFBENCH_SPAWNED"] = repr(start)
    pid = os.posix_spawnp(argv[0], argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    os.write(fd, f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n".encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
