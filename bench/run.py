"""Closed-loop benchmark of the symtiling package, run in one process.

    python3 bench/run.py --workload grid-exact --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the package is imported from ./src.
One client runs one item at a time; the next item starts when the
previous one has returned and its output has been checked against
bench/reference.json.

--trace 0 prints the end-to-end metrics.  A run times pass after pass,
each of `pass_rounds` fresh rounds of the seed and each on the next of
the allowed CPUs, until --seconds of passes are spent.  Every item is
timed once, between two runs of a fixed calibration kernel, and its
wall time is scaled to the reference host speed: times CAL_REF_S over
the mean of the two kernel times.  On a shared host whose speed swings
by up to 2x within seconds, the scaled times follow the program and not
the host; the wall-clock figures are kept in the provenance line.
Inputs rarely repeat: an input comes back only after its whole stratum
has been dealt, and CLI inputs are turned and moved anew for every item,
so a cache keyed on inputs gains little more here than on real traffic
(pentagon-verify, which takes no input, excepted).
items_per_s is the correct items over the scaled time spent in the
program on all items; the latency percentiles are over all those items.
Set-up time is the median of SETUP_PROBES fresh processes spread over
the run, each timed from its start until it is ready for its first item
and scaled by the kernel times just before and after it.

--trace 1 prints the per-layer metrics.  It runs the seed's first
`trace_rounds` rounds twice, once on each of two CPUs; every item runs
plain and then, with every layer wrapped in spans (bench/spans.py),
traced.  The fixed item list makes the counts repeat exactly for a
seed, and a count that differs between the runs of one item fails the
run.  The last line of stdout is the result object; the line before
it holds provenance.  A readable table of the metrics goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference.json")

SETUP_PROBES = 5
CAL_REF_S = 0.0025  # calibration kernel time at the reference host speed
TAIL_PERCENTILE = 90
LIMITS = ("virtual CPUs on a shared host: wall-clock timing scaled by a "
          "calibration kernel, no hardware counters, "
          "no isolated CPUs (passes alternate over the allowed CPUs), "
          "machine settings untouched")


def load_package():
    """Import symtiling from this checkout's src, never from elsewhere."""
    init = os.path.join(SRC, "symtiling", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from the root of a "
                 "symtiling checkout")
    sys.path.insert(0, SRC)
    import symtiling

    if os.path.abspath(symtiling.__file__) != init:
        sys.exit(f"error: imported {symtiling.__file__}, expected {init}")


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_work, removed on exit together with
    .bench_work when nothing else is left in it."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def load_reference(workload):
    with open(REFERENCE) as fh:
        recorded = json.load(fh)["workloads"][workload.name]
    if recorded["pool_sha256"] != workload.pool_sha256():
        sys.exit(f"error: {workload.name} inputs differ from the pool "
                 "bench/reference.json was recorded for; rerun "
                 "bench/record.py")
    return recorded["refs"]


def set_up(name, workdir, tracer=None):
    """Inputs, cold caches and warm-up: everything before the first item.
    Spans cover the cache builds when a tracer is given."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    if tracer:
        tracer.install()
    try:
        workload.prepare(workdir)
    finally:
        if tracer:
            tracer.uninstall()
    workload.warm_up()
    return workload


def probe_set_up(args):
    """Time of one fresh process from its start until it is ready, scaled
    to the reference host speed.  The process inherits this one's CPU."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return scaled(elapsed, before, calibrate())


def calibrate():
    """Wall time of a fixed piece of pure-Python work, whose only use is to
    gauge the host's current speed.  Like the program, it is interpreted
    code on growing integers; it calls nothing in the package, so no
    change to the package moves it."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for _ in range(300):
        x = x * Fraction(7, 11) + Fraction(1, 5)
        x = Fraction(x.numerator % 10**40 + 1, x.denominator % 10**40 + 1)
    return time.perf_counter() - start


def scaled(wall, before, after):
    """A wall time scaled to the reference host speed, by the calibration
    kernel times just before and just after it."""
    return wall * 2.0 * CAL_REF_S / (before + after)


class Loop:
    """The closed-loop client: runs items, checks each output against the
    reference, and fails the run when one input's counts change between
    its repeats."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failures = []
        self.first_counts = {}
        self.nondeterministic = []

    def run(self, items):
        """One pass over the items: wall latencies in s, the same scaled
        to the reference host speed, and counts, per item."""
        clock = time.perf_counter
        walls, latencies, counts = [], [], []
        before = calibrate()
        for item in items:
            self.attempted += 1
            self.workload.stage(item)
            start = clock()
            try:
                output = self.workload.run(item)
            except Exception as exc:  # a failing item is counted, not fatal
                output = exc
            wall = clock() - start
            problem, found = self._inspect(item, output)
            if problem:
                self.failures.append(f"{item}: {problem}")
            counts.append(found)
            after = calibrate()
            walls.append(wall)
            latencies.append(scaled(wall, before, after))
            before = after
        return walls, latencies, counts

    def _inspect(self, item, output):
        """(what is wrong or None, counts or None) for one item's output."""
        if isinstance(output, Exception):
            return f"{type(output).__name__}: {output}", None
        s, v, _ = item
        try:
            problem = self.workload.check(output, self.refs[s][v])
            found = self.workload.counts(output)
        except Exception as exc:  # a malformed output fails its check
            return f"check raised {type(exc).__name__}: {exc}", None
        if self.first_counts.setdefault(item, found) != found:
            self.nondeterministic.append(item)
        return problem, found


@contextlib.contextmanager
def on_cpu(index):
    """Run the block on the index-th allowed CPU (cyclically), so that an
    item and the calibration kernels around it run on the same CPU.  The
    virtual CPUs of a shared host are not equally contended, so passes
    alternate between them."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(cpus)[index % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def count_metrics(counts):
    """Counts read from returned records and written files, tracing off."""
    from workloads import TERMINATIONS, VERDICTS

    rows = [c for c in counts if c]
    bits = [c["peak_bits"] for c in rows if "peak_bits" in c]

    def total(key, value=None):
        if value is None:
            return sum(c.get(key, 0) for c in rows)
        return sum(1 for c in rows if c.get(key) == value)

    out = {
        "dynamics.steps.total": (total("steps"), "count"),
        "exact.peak_bits.max": (max(bits, default=0), "bits"),
        "exact.peak_bits.p50": (statistics.median(bits) if bits else 0,
                                "bits"),
        "serialize.bytes_written": (total("json_bytes"), "bytes"),
        "svgout.bytes_written": (total("svg_bytes"), "bytes"),
    }
    for verdict in VERDICTS:
        out[f"dynamics.verdict.{verdict}"] = (total("verdict", verdict),
                                              "count")
    for kind in TERMINATIONS:
        out[f"dynamics.termination.{kind}"] = (total("termination", kind),
                                               "count")
    return out


def timing(times, correct):
    """Throughput and latency percentiles of per-item times in s."""
    cuts = statistics.quantiles(times, n=100)
    return {
        "items_per_s": (correct * len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        f"latency_p{TAIL_PERCENTILE}_ms": (cuts[TAIL_PERCENTILE - 1] * 1e3,
                                           "ms"),
    }


def measure(args, loop):
    """End-to-end metrics over fresh rounds, with set-up probes spread over
    the passes, and the wall-clock figures for provenance."""
    stream = loop.workload.rounds(args.seed)
    setup, items, walls, lat, busy = [], [], [], [], 0.0
    passes = 0
    while busy < args.seconds or passes < 2:
        batch = [item for _ in range(loop.workload.pass_rounds)
                 for item in next(stream)]
        with on_cpu(passes):
            if busy >= len(setup) * args.seconds / (SETUP_PROBES - 1):
                setup.append(probe_set_up(args))
            start = time.perf_counter()
            wall, scaled_lat, _ = loop.run(batch)
            busy += time.perf_counter() - start
        walls.extend(wall)
        lat.extend(scaled_lat)
        items.extend(batch)
        passes += 1
    with on_cpu(passes):
        while len(setup) < SETUP_PROBES:
            setup.append(probe_set_up(args))
    correct = 1.0 - len(loop.failures) / loop.attempted
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "correct_frac": (correct, "fraction"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss * 1024 / 1e6, "MB"),
    }
    metrics.update(timing(lat, correct))
    wall_clock = {name: value for name, (value, _) in
                  timing(walls, correct).items()}
    return items, passes, metrics, {"wall_clock": wall_clock}


def measure_traced(args, loop, tracer):
    """Per-layer metrics over the seed's first trace_rounds rounds.  Each
    item runs plain and then traced, back to back, so the two share the
    host's state; the list is run twice, once on each of two CPUs."""
    items = loop.workload.items(args.seed, loop.workload.trace_rounds)
    plain = traced = 0.0
    counts = []
    for cpu in range(2):
        with on_cpu(cpu):
            for item in items:
                _, lat, found = loop.run([item])
                plain += lat[0]
                if cpu == 0:
                    counts.extend(found)
                tracer.install()
                try:
                    traced += loop.run([item])[1][0]
                finally:
                    tracer.uninstall()
    metrics = dict(tracer.metrics())
    metrics.update(count_metrics(counts))
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "fraction")
    return items, 2, metrics, {}


def provenance(args, loop, items, passes, extra):
    import numpy
    from workloads import sha256_json

    pool = loop.workload.pool_sha256()
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "symtiling")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "client": "one closed-loop client, in process",
        "pool_sha256": pool,
        "inputs_sha256": sha256_json([pool, items]),
        "items": len(items),
        "passes": passes,
        "tail_metric": f"latency_p{TAIL_PERCENTILE}_ms is the "
                       f"{TAIL_PERCENTILE}th percentile of the latencies "
                       "of all items timed",
        "time_scale": f"times are scaled to a host that runs the "
                      f"calibration kernel in {CAL_REF_S * 1e3:g} ms; "
                      "wall_clock holds the unscaled figures",
        "limits": LIMITS,
        **extra,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-exact", "grid-float", "cli-polygons"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    with scratch_dir() as workdir:
        if args.setup_probe:
            set_up(args.workload, workdir)
            print("ready", flush=True)
            return 0
        from spans import Tracer

        tracer = Tracer() if args.trace else None
        workload = set_up(args.workload, workdir, tracer)
        loop = Loop(workload, load_reference(workload))
        if args.trace:
            items, passes, metrics, notes = measure_traced(args, loop, tracer)
        else:
            items, passes, metrics, notes = measure(args, loop)

    failures = loop.failures
    nondeterministic = [repr(i) for i in loop.nondeterministic]
    extra = {
        "failed_frac": len(failures) / loop.attempted,
        "failures": failures[:5],
        "nondeterministic": nondeterministic[:5],
        "absent_spans": tracer.absent if tracer else [],
        **notes,
    }
    record = provenance(args, loop, items, passes, extra)
    print(json.dumps({"provenance": record}))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    for failure in failures[:5] + nondeterministic[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not nondeterministic,
        "attempted": loop.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
