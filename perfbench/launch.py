"""Run one cqsym CLI command in this process with the span tracer installed.

    python perfbench/launch.py TRACE_FILE QUERY_ID CLI_ARG...

`start_s` in the trace is the time from the spawn (PERFBENCH_SPAWNED, set
by perfbench/spawn.py) until cqsym.cli is imported.  The trace is written
once, when the command returns.
"""

import os
import sys
import time

import cqsym.cli

IMPORTED = time.monotonic()

import tracer  # noqa: E402  (after the clock read: tracing is not start-up)


def main() -> int:
    trace_file, query, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    t = tracer.Tracer()
    t.install(cqsym)
    t.query = query
    try:
        return cqsym.cli.main(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return exc.code
    finally:
        t.write(trace_file, start_s=IMPORTED - spawned)


if __name__ == "__main__":
    sys.exit(main())
