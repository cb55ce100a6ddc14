"""A long-lived cqsym library process for the warm-session workload, and
the answer checker.

    python perfbench/warm.py REQUEST_FILE

Every mode first sets up: import cqsym, then one conversion per expand
route and (alphabet, degree) bucket, which builds the per-degree tables.
Then, by the request's "mode":

- "serve": answer whole warm passes of the stream of "seed", each query
  parsed from text and rendered back to text (see `serve`);
- "setup": nothing more;
- "check": check each [query, answer] of "items" (queries.check).

One JSON object goes to stdout at the end.  With "trace_file" set, the
span tracer is installed before set-up and its trace written at the end.
"""

import json
import os
import resource
import sys
import time

import probe
import queries


def setup(cq, strict: bool) -> None:
    """The warm-up.  The checker (not strict) goes on past a failing
    conversion: the answers it checks will show the fault."""
    for q in queries.warmup_conversions():
        try:
            queries.answer(q, cq)
        except Exception:
            if strict:
                raise


def _call(cq, q, t, query_id):
    if t is not None:
        t.query = query_id
    start = time.perf_counter()
    try:
        out, error = queries.answer(q, cq), None
    except Exception as exc:  # a failed query is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, error


def serve(cq, request, t) -> dict:
    """Answer "passes" passes of queries, each query called once, and time
    the machine probe after each pass.  Only the calls are timed."""
    units = []  # [pass, query, latency, answer, error]
    probes = []
    timed = 0.0
    for index in range(request["passes"]):
        todo = queries.warm_pass(request["seed"], index)
        start = time.perf_counter()
        for q in todo:
            units.append([index, q, *_call(cq, q, t, len(units))])
        timed += time.perf_counter() - start
        probes.append(probe.cpu_s())
    return {"units": units, "timed_s": timed, "probes": probes}


def check(cq, request) -> dict:
    failures = []
    for i, (q, out) in enumerate(request["items"]):
        try:
            reason = queries.check(q, out, cq)
        except Exception as exc:  # an unparseable answer is a wrong answer
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append([i, reason])
    return {"failures": failures}


def main() -> int:
    with open(sys.argv[1]) as f:
        request = json.load(f)
    spawned = float(os.environ["PERFBENCH_SPAWNED"])  # set by perfbench/spawn.py
    import cqsym
    from cqsym import nsym, poset, qsym  # noqa: F401  (loads the submodules)

    t = None
    if request.get("trace_file"):
        import tracer

        t = tracer.Tracer()
        t.install(cqsym)
    setup(cqsym, strict=request["mode"] != "check")
    reply = {
        "setup_s": time.monotonic() - spawned,
        "setup_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": probe.cpu_s(),
    }
    if request["mode"] == "serve":
        reply.update(serve(cqsym, request, t))
    elif request["mode"] == "check":
        reply.update(check(cqsym, request))
    if t is not None:
        t.write(request["trace_file"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
