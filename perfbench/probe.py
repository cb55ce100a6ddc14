"""A fixed pure-Python workload that times the machine, not cqsym.

The machine the benchmark was tuned on, a shared two-vCPU box, runs about
1.3 to 1.6 times slower in busy spells that last from seconds to minutes;
CPU time inflates with wall time, so the slowdown is per cycle and no
repetition inside a run removes it.  The benchmark runs this probe as a fresh `python -S -c CODE` process
beside its units of work and scales their times and the set-up times by
REFERENCE_S / (probe time) (see perfbench/README.md).  The probe does
dictionary and allocation work and touches nothing of cqsym, in a process
of its own, so a change to cqsym cannot move it.
"""

import os
import sys

CODE = "for r in range(32):\n    d = {}\n    for i in range(5000):\n        d[(i, i % 7)] = str(i)\n"

# the probe's time on the reference machine, in a quiet spell
REFERENCE_S = 0.06


def cpu_s() -> float:
    """Run the probe as a child of this process; its own CPU time.

    posix_spawn does not copy this process's memory, and the child's rusage
    counts only the child, so whatever this process holds cannot move the
    probe.  The slowdown is per cycle, so CPU time shows it as wall time
    does."""
    argv = [sys.executable, "-S", "-c", CODE]
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("the machine probe failed")
    return usage.ru_utime + usage.ru_stime
