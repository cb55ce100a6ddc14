"""The cqsym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cqsym checkout; it uses the sources under src/
as they are (pure Python, nothing to build).  Workloads:

- cold-query: single-element CLI queries, each `python -m cqsym.cli ...` in
  a fresh process, in passes of 100 (queries.COLD_CELLS);
- warm-session: one library process with its tables built in set-up,
  answering passes of 182 queries (queries.WARM_CELLS);
- full-tables: whole-degree `coeffs` and `graph` jobs and the six `verify`
  suites at --alphabet ab --max-degree 5, each in a fresh process.

A run makes one cold-query pass and two full-tables passes per 15 s of
--seconds (at least that many), and 2 * --seconds warm passes.

Each is a closed loop with one client.  Every answer is checked afterwards
in a separate process.  Times are scaled to a reference machine speed by a
probe process run beside the work (perfbench/probe.py).  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
runs one fixed amount of work twice, untraced and traced
(perfbench/tracer.py), and reports the per-layer totals of the traced run
and the overhead.  Human-readable lines come first; the
last line of stdout is one JSON object.  The exit code is 1 when any answer
is wrong.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import probe
import queries
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 90  # a run must end within 180 s
# Passes per 15 s of --seconds.  A cold-query pass takes 30 to 40 s and a
# full-tables pass 17 to 25 s.  Full-tables makes two, so that its
# latency_ms_p90 does not rest on one run of its slowest job.
PASSES_PER_15_S = {"cold-query": 1, "full-tables": 2}
WARM_PASSES_PER_SECOND = 2  # a warm pass takes about half a second


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Child:
    out: bytes
    err: bytes
    code: int
    wall_s: float
    maxrss_mb: float


@dataclass
class Unit:
    """One timed query or job."""
    name: str
    pass_index: int
    wall_s: float
    failure: str | None = None
    scale: float = 1.0  # machine speed scale: reference / probe time


def run_child(argv, env) -> Child:
    """Run argv to completion through perfbench/spawn.py, which measures its
    wall time and its own peak RSS (os.wait4 on that one process, not
    RUSAGE_CHILDREN, which keeps one high-water mark over all children)."""
    report_r, report_w = os.pipe()
    start = time.monotonic()
    p = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py"), str(report_w), *argv],
                         cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, pass_fds=(report_w,), start_new_session=True)
    os.close(report_w)
    fds = {p.stdout.fileno(): [], p.stderr.fileno(): [], report_r: []}
    try:
        with selectors.DefaultSelector() as sel:
            for fd in fds:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.monotonic()
                events = sel.select(remaining) if remaining > 0 else []
                if not events:
                    _kill_group(p)
                    break
                for key, _ in events:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        fds[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    finally:
        os.close(report_r)
        p.stdout.close()
        p.stderr.close()
        p.wait()
    out, err, report = (b"".join(chunks) for chunks in fds.values())
    if not report:
        return Child(out, err + b"\nkilled after %d s" % CHILD_TIMEOUT_S, -9, time.monotonic() - start, 0.0)
    code, wall_s, maxrss_kb = report.split()
    return Child(out, err, int(code), float(wall_s), int(maxrss_kb) / 1024)


def _kill_group(p: subprocess.Popen) -> None:
    """Kill the spawner and its child, and wait until both have ended."""
    os.killpg(p.pid, signal.SIGKILL)
    p.wait()
    while True:
        try:
            os.killpg(p.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def exit_failure(c: Child) -> str | None:
    if c.code == 0:
        return None
    lines = (c.err.strip() or c.out).decode(errors="replace").strip().splitlines()
    return f"exit {c.code}: {lines[-1] if lines else ''}"


def cli(args) -> list:
    return [sys.executable, "-m", "cqsym.cli", *args]


def percentile(values, p) -> float:
    """Nearest rank: with 100 values the 90th percentile has 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Bench:
    def __init__(self, seed: int, seconds: int, trace: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.setup_runs = []  # trivial CLI calls taken during the run
        self.probes = []      # machine probe times
        self.setup_every = 1
        self.traced_runs = 0
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.totals = tracer.Totals()
        self.plain_s = 0.0   # trace runs: wall time of the untraced copies
        self.traced_s = 0.0  # and of the traced ones
        self.units = []

    def child(self, argv) -> Child:
        return run_child(argv, self.env)

    def traced_cli(self, args, query_id: int, used_shapes) -> Child:
        trace_file = self.work / f"trace-{query_id}.bin"
        c = self.child([sys.executable, str(HERE / "launch.py"), str(trace_file), str(query_id), *args])
        if trace_file.exists():
            self.totals.add(tracer.read(trace_file), used_shapes)
            trace_file.unlink()
        return c

    def warm(self, request: dict) -> tuple[dict, Child]:
        """Run perfbench/warm.py on request; its reply and its process."""
        path = self.work / "request.json"
        path.write_text(json.dumps(request))
        c = self.child([sys.executable, str(HERE / "warm.py"), str(path)])
        if c.code != 0:
            raise BenchError(f"warm worker ({request['mode']}) failed: {exit_failure(c)}\n"
                             + c.err.decode(errors="replace")[-2000:])
        return json.loads(c.out), c

    def check(self, items) -> tuple[dict, dict]:
        """Check [unit index, query, answer] items in a checker process; the
        failures by unit index, and the checker's reply."""
        reply, _ = self.warm({"mode": "check", "items": [[q, out] for _, q, out in items]})
        return {items[i][0]: reason for i, reason in reply["failures"]}, reply

    def setup_sample(self) -> None:
        """Time a trivial CLI call (`--help`: start, import, argparse), the
        set-up a CLI user pays, then the machine probe.  Samples are spread
        over the run, so that a burst of load on the machine moves few of
        them."""
        c = self.child(cli(["--help"]))
        if c.code != 0:
            raise BenchError(f"`cqsym --help` failed: {exit_failure(c)}")
        self.setup_runs.append(c)
        p = self.child([sys.executable, "-S", "-c", probe.CODE])
        if p.code != 0:
            raise BenchError(f"the machine probe failed: {exit_failure(p)}")
        self.probes.append(p.wall_s)

    def passes(self, make_pass, run, setup_every: int, per_15_s: int) -> dict:
        """Run per_15_s passes per 15 s of --seconds, at least per_15_s; a
        trace run makes exactly one.  The count is fixed, not timed, so that a run
        does the same work however fast the machine is at the moment.
        run(item) returns the processes run for one unit.  A set-up sample
        (with its probe) is taken before every setup_every-th unit and after
        the last, so that the samples spread over the run and every group of
        setup_every units has a probe on each side.  Returns {(pass,
        position): (item, [Child, ...])}; self.wall_s is the time taken,
        less that of the set-up samples and probes."""
        self.child(cli(["--help"]))  # untimed: a fresh checkout compiles bytecode
        self.setup_every = setup_every
        done = {}
        start = time.monotonic()
        for index in range(1 if self.trace else per_15_s * max(1, self.seconds // 15)):
            for position, item in enumerate(make_pass(index)):
                if not self.trace and len(self.setup_runs) * setup_every <= len(done):
                    self.setup_sample()
                done[index, position] = (item, run(item))
        if not self.trace:
            self.setup_sample()
        self.wall_s = (time.monotonic() - start - sum(c.wall_s for c in self.setup_runs)
                       - sum(self.probes))
        return done

    def run_cli(self, args, used_shapes) -> list:
        """One CLI unit: plain, and in a trace run traced as well."""
        c = self.child(cli(args))
        if not self.trace:
            return [c]
        traced = self.traced_cli(args, self.traced_runs, used_shapes)
        self.traced_runs += 1
        self.plain_s += c.wall_s
        self.traced_s += traced.wall_s
        return [c, traced]

    def add_units(self, done, name, check) -> list:
        """Turn the results of passes() into units, in the same order;
        check(item, stdout) gives a failure or None.  A unit's time is that
        of its untraced run."""
        units = []
        for (index, _), (item, runs) in done.items():
            failure = next(filter(None, map(exit_failure, runs)), None)
            if failure is None and any(r.out != runs[0].out for r in runs):
                failure = "traced answer differs"
            failure = failure or check(item, runs[0].out)
            units.append(Unit(name(item), index, runs[0].wall_s, failure))
        self.units += units
        self.peak_rss_mb = max(r.maxrss_mb for _, runs in done.values() for r in runs)
        return units

    def cli_result(self):
        """(timed wall time, set-up samples, base RSS, peak RSS) of a CLI
        workload.  Each set-up sample is scaled by the probe run right
        after it."""
        if self.trace:
            return self.wall_s, [], 0.0, self.peak_rss_mb
        setup_s = [c.wall_s * probe.REFERENCE_S / p for c, p in zip(self.setup_runs, self.probes)]
        return (self.wall_s, setup_s, statistics.median(c.maxrss_mb for c in self.setup_runs),
                self.peak_rss_mb)


# ---------------------------------------------------------------------------
# workloads: each returns (timed wall time, set-up samples, base RSS, peak
# RSS); the set-up samples come scaled

def cold_query(b: Bench):
    done = b.passes(lambda index: queries.cold_pass(b.seed, index),
                    lambda q: b.run_cli(queries.cli_argv(q), queries.input_shapes(q)),
                    setup_every=10, per_15_s=PASSES_PER_15_S["cold-query"])
    units = b.add_units(done, lambda q: q["kind"], lambda q, out: None)
    if b.probes:
        # each query by the mean of the two probes around its group of 10:
        # the machine's busy spells come and go within seconds
        for k, u in enumerate(units):
            g = k // b.setup_every
            u.scale = 2 * probe.REFERENCE_S / (b.probes[g] + b.probes[g + 1])
    items = [(i, q, runs[0].out.decode().rstrip("\n"))
             for i, (q, runs) in enumerate(done.values()) if units[i].failure is None]
    failures, _ = b.check(items)
    for i, reason in failures.items():
        units[i].failure = reason
    return b.cli_result()


def warm_session(b: Bench):
    # a fixed amount of work: its cache growth must not depend on how fast
    # the machine is today
    request = {"mode": "serve", "seed": b.seed, "passes": WARM_PASSES_PER_SECOND * b.seconds}
    if b.trace:
        plain, plain_child = b.warm(request)
        trace_file = b.work / "trace-warm.bin"
        reply, child = b.warm(dict(request, trace_file=str(trace_file)))
        b.plain_s, b.traced_s = plain_child.wall_s, child.wall_s
        used = set().union(*(queries.input_shapes(u[1]) for u in reply["units"]))
        b.totals.add(tracer.read(trace_file), used)
    else:
        reply, child = b.warm(request)
        setup_only, _ = b.warm({"mode": "setup"})
        plain = None
    items = []
    for i, (index, q, latency, out, error) in enumerate(reply["units"]):
        failure = f"{q['kind']}: {error}" if error else None
        if plain is not None and failure is None and out != plain["units"][i][3]:
            failure = f"{q['kind']}: traced output differs"
        if failure is None:
            items.append((i, q, out))
        b.units.append(Unit(q["kind"], index, latency, failure))
    failures, checker = b.check(items)
    for i, reason in failures.items():
        b.units[i].failure = reason
    if b.trace:
        return reply["timed_s"], [], 0.0, child.maxrss_mb
    # The probe runs after every pass.  A pass is shorter than the probe's
    # own noise lets one probe judge, so every unit takes the median probe
    # of the run; each set-up is scaled by the probe its process ran right
    # after it.
    b.probes = reply["probes"]
    scale = probe.REFERENCE_S / statistics.median(b.probes)
    for u in b.units:
        u.scale = scale
    setup_s = [r["setup_s"] * probe.REFERENCE_S / r["probe_s"] for r in (reply, setup_only, checker)]
    return reply["timed_s"], setup_s, reply["setup_maxrss_kb"] / 1024, child.maxrss_mb


def full_tables(b: Bench):
    order = list(queries.JOBS)
    random.Random(b.seed).shuffle(order)
    done = b.passes(lambda index: order, lambda job: b.run_cli(job[1], None), setup_every=1,
                    per_15_s=PASSES_PER_15_S["full-tables"])
    units = b.add_units(done, lambda job: job[0], lambda job, out: queries.check_job(job[3], out))
    if b.probes:
        # each job by the median probe of the run.  Over ten seeds this gave
        # a narrower spread of every time metric than the probes on either
        # side of a job, whose few samples of a job of seconds are noisy
        scale = probe.REFERENCE_S / statistics.median(b.probes)
        for u in units:
            u.scale = scale
    return b.cli_result()


WORKLOADS = {"cold-query": cold_query, "warm-session": warm_session, "full-tables": full_tables}


# ---------------------------------------------------------------------------
# metrics

def _per_pass(units, keep) -> float:
    """The scaled unit time of the kept units, summed, per pass."""
    return sum(u.wall_s * u.scale for u in units if keep(u)) / len({u.pass_index for u in units})


def effective_scale(units) -> float:
    """The scale of the run as a whole: scaled unit time ÷ measured."""
    return sum(u.wall_s * u.scale for u in units) / sum(u.wall_s for u in units)


# Workloads whose latency_ms_p90 is scaled.  Over ten seeds, scaling
# narrowed the spread of the p90 of cold-query and full-tables, but not
# that of warm-session (small calls), which is therefore reported as
# measured.
P90_SCALED = ("cold-query", "full-tables")


def end_to_end(units, wall_s, setup_s, base_rss, peak_rss, scale_p90: bool) -> list:
    """(name, unit, value) of every end-to-end metric.  A unit of work is a
    query (cold-query, warm-session) or a job (full-tables); a pass is one
    run through the workload's fixed list of them.  Unit times are scaled by
    their units' scale (latency_ms_p90 only if scale_p90) and the timed wall
    time by the run's; setup_s comes scaled."""
    latencies = [u.wall_s * u.scale for u in units]
    p90 = percentile(latencies if scale_p90 else [u.wall_s for u in units], 0.9)
    return [
        ("latency_ms_p50", "ms", statistics.median(latencies) * 1000),
        ("latency_ms_p90", "ms", p90 * 1000),
        ("throughput_qps", "1/s", len(units) / (wall_s * effective_scale(units))),
        ("setup_s", "s", statistics.median(setup_s)),
        ("peak_rss_mb", "MB", peak_rss),
        ("rss_growth_mb", "MB", peak_rss - base_rss),
        ("batch_s", "s", _per_pass(units, lambda u: True)),
    ]


# Traced functions with a .s and .calls metric each; verify.run reports per
# suite instead.
LAYER_FUNCTIONS = [name for name in tracer.TRACED if name != "verify.run"] + ["exprs.render"] + [
    f"verify.{suite}" for suite in queries.VERIFY_CHECKS
]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(t: tracer.Totals, plain_s: float, traced_s: float) -> list:
    """(name, unit, better, value) of every per-layer metric: totals over
    the traced work of one run."""
    rows = [("cli.start_s", "s", "lower", t.start_s)]
    for name in LAYER_FUNCTIONS:
        rows.append((f"{name}.s", "s", "lower", t.s(name)))
        rows.append((f"{name}.calls", "count", "lower", t.n(name)))
    for suite in queries.VERIFY_CHECKS:
        rows.append((f"verify.{suite}.checks", "count", "higher", t.count(f"verify.{suite}", "checks")))
    inverse = ("descent_graph.inverse_row", "descent_graph.inverse_column")
    reached, vertices, terms = (sum(t.count(name, key) for name in inverse)
                                for key in ("reached", "vertices", "terms"))
    rows += [
        ("exprs.terms_out", "count", "lower", t.count("exprs.render", "terms")),
        ("sentences.sort_sentences.items", "count", "lower", t.count("sentences.sort_sentences", "items")),
        ("sentences.all_sentences.items", "count", "lower", t.count("sentences.all_sentences", "items")),
        ("tableaux.standard_data.shapes", "count", "lower", t.shapes_enumerated),
        ("tableaux.rows_used_ratio", "ratio", "higher", _ratio(t.shapes_used, t.shapes_enumerated)),
        ("tableaux.cache_entries", "count", "lower", t.cache_entries("tableaux")),
        ("tableaux.cache_hit_ratio", "ratio", "higher", t.cache_hit_ratio("tableaux")),
        ("descent_graph.build.vertices", "count", "lower", t.count("descent_graph.build", "vertices")),
        ("descent_graph.build.edges", "count", "lower", t.count("descent_graph.build", "edges")),
        ("descent_graph.reached_ratio", "ratio", "higher", _ratio(reached, vertices)),
        ("descent_graph.inverse_terms", "count", "lower", terms),
        ("nsym.creation_cache_entries", "count", "lower", t.cache_entries("nsym.creation")),
        ("nsym.creation_cache_hit_ratio", "ratio", "higher", t.cache_hit_ratio("nsym.creation")),
        ("poset.enumerate_skew_tableaux.items", "count", "lower", t.count("poset.enumerate_skew_tableaux", "items")),
        ("trace.overhead_s", "s", "lower", traced_s - plain_s),
        ("trace.overhead_ratio", "ratio", "lower", _ratio(traced_s - plain_s, plain_s)),
    ]
    return rows


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cqsym" / "cli.py").is_file():
        print(f"error: no cqsym sources at {SRC}; run from a cqsym checkout", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    b = Bench(args.seed, args.seconds, bool(args.trace), work)
    try:
        wall_s, setup_s, base_rss, peak_rss = WORKLOADS[args.workload](b)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if b.trace:
        rows = [(name, unit, value) for name, unit, _, value in per_layer(b.totals, b.plain_s, b.traced_s)]
    else:
        rows = end_to_end(b.units, wall_s, setup_s, base_rss, peak_rss, args.workload in P90_SCALED)
    if [name for name, _, _ in rows] != declared_metrics(b.trace):
        print("error: the metrics reported differ from those BENCHMARK.json declares", file=sys.stderr)
        return 2

    failed = [u for u in b.units if u.failure]
    passes = len({u.pass_index for u in b.units})
    w = args.workload
    print(f"{w}: {len(b.units)} units in {passes} passes, {wall_s:.2f} s timed, seed {args.seed}")
    if b.probes:
        print(f"{w} machine probe: median {statistics.median(b.probes):.4g} s over {len(b.probes)} runs, "
              f"reference {probe.REFERENCE_S} s; times scaled by {effective_scale(b.units):.4g} "
              f"over the run (measured batch_s = reported batch_s / scale)")
    for name, unit, value in rows:
        print(f"{w} {name} = {value:.6g} {unit}")
    if not b.trace and w == "full-tables":
        # printed, not declared in BENCHMARK.json, where every end-to-end
        # metric is gated on every workload
        group = {job[0]: job[2] for job in queries.JOBS}
        for g in ("graph", "verify"):
            print(f"{w} {g}_jobs_s = {_per_pass(b.units, lambda u: group[u.name] == g):.6g} s")
    print(f"{w} failed_ratio = {len(failed) / len(b.units):.6g} ratio")
    for u in failed[:10]:
        print(f"FAILED {u.name}: {u.failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(b.units),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in rows},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
