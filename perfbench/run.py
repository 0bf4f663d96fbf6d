"""Benchmark of deflap: time to a certified answer, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload caterpillar --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py for what each op does and why):
caterpillar, big_tree, property_sweep. The run is one process and one
thread, and imports deflap from ``src/`` next to this directory.

With ``--trace 0`` the run sets the inputs up five times (setup_s is the
import time plus the median set-up), then runs passes over the inputs
until the time spent in ops is nearest ``--seconds`` (the first pass
always completes; the last may stop part way). ops_per_s is the number
of input items over the sum of their mean op latencies, so every item
weighs the same however many times it ran. Every op of the first pass
is checked live and against the references stored for the seeds the
benchmark ships (references.json, seeds 0-31); later passes must repeat
the first pass's integer outputs. Checks run between ops, off the clock.

With ``--trace 1`` the same untraced passes run first; then the Scalar
microbench, then one more set-up and one pass under the tracer, whose
spans go to ``.bench_out/``. The metrics are then the per-layer ones,
plus the tracing overhead (untraced over traced ops per second).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name with its unit, and the run facts.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
# percentiles tried for op_tail_ms, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
# The result line carries the metrics BENCHMARK.json bounds; all six are
# printed above it. fail_frac reads 0 on a healthy run (failures reach the
# result line as attempted/failed), op_tail_ms is omitted on runs of fewer
# than 20 ops, and op_p50_ms rests on a few ops per pass on caterpillar and
# big_tree, so its run-to-run spread on a shared 2-core host reached 0.3.
END_TO_END_GATED = ("setup_s", "ops_per_s", "peak_rss_mb")


def per_layer_unit(name):
    if name.endswith("_s") or ".check_s." in name:
        return "s"
    if "_ns." in name:
        return "ns"
    if name.endswith(("_ratio", "_per_radius")):
        return "ratio"
    if name.endswith("_digits_max"):
        return "digits"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    return "count"


def import_deflap():
    """Import deflap from this checkout's src/, or exit 2 without a result."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import deflap
    except ImportError as exc:
        sys.stderr.write("cannot import deflap from %s: %s\n" % (src, exc))
        sys.exit(2)
    if not os.path.abspath(deflap.__file__).startswith(src + os.sep):
        sys.stderr.write("deflap was imported from %s, not %s\n" % (deflap.__file__, src))
        sys.exit(2)
    return deflap


class Ledger:
    """Outcome of every op run: latencies, failures and the first-pass values."""

    def __init__(self, workload, items, references):
        self.workload = workload
        self.items = items
        self.references = references
        self.first = [None] * len(items)
        self.latencies = []
        self.by_op = [[] for _ in items]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference_checked = 0

    def record(self, index, out, error, latency):
        self.attempted += 1
        self.latencies.append(latency)
        self.by_op[index].append(latency)
        if error is None:
            try:
                problems = self._verify(index, out)
            except Exception as exc:  # a malformed answer counts as failed
                problems = ["checking it raised %r" % (exc,)]
        else:
            problems = ["raised %r" % (error,)]
        if problems:
            self.failed += 1
            self.problems.append("op %d: %s" % (index, "; ".join(problems)))

    def _verify(self, index, out):
        wl, item = self.workload, self.items[index]
        value = wl.value(out)
        if self.first[index] is not None:
            if value != self.first[index]:
                return ["integer outputs differ from the first pass"]
            return []
        problems = wl.check(item, out)
        expected = self.references.get(wl.key(item))
        if expected is not None:
            self.reference_checked += 1
            if expected != value:
                problems.append("integer outputs %r differ from the reference %r"
                                % (value, expected))
        if not problems:
            # later passes need only repeat it; a wrong answer is checked
            # (and counted) again on every pass
            self.first[index] = value
        return problems


def run_op(wl, items, index, ledger, tracer=None):
    """Run one item; returns the seconds it took."""
    item = items[index]
    if tracer is not None:
        tracer.op = "flagship" if getattr(item, "flagship", False) else "op%d" % index
    started = time.perf_counter()
    try:
        out, error = wl.run(item), None
    except Exception as exc:  # a raising op counts as failed
        out, error = None, exc
    latency = time.perf_counter() - started
    if tracer is not None:
        tracer.op = None
    ledger.record(index, out, error, latency)
    return latency


def run_pass(wl, items, ledger, tracer=None):
    """Run every item once; returns the seconds spent inside ops."""
    return sum(run_op(wl, items, index, ledger, tracer) for index in range(len(items)))


def run_untraced(wl, items, ledger, seconds):
    """Passes over the items while the next op, at its mean latency so
    far, brings the time spent in ops nearer to ``seconds``; the first
    pass always completes. Returns (busy, passes), passes counting a
    part-done last pass as its done share."""
    busy = run_pass(wl, items, ledger)
    done = len(items)
    while busy + statistics.fmean(ledger.by_op[done % len(items)]) / 2 < seconds:
        busy += run_op(wl, items, done % len(items), ledger)
        done += 1
    return busy, done / len(items)


def setup(wl, seed):
    """Set the inputs up SETUP_REPEATS times; returns (items, median seconds)."""
    times, items = [], None
    for _ in range(SETUP_REPEATS):
        items = None  # free the last inputs first, so two sets never coexist
        started = time.perf_counter()
        items = wl.setup(seed)
        times.append(time.perf_counter() - started)
    return items, statistics.median(times)


def tail(latencies):
    """(percentile, value) at the highest ladder percentile with at least
    ten samples beyond it; None under 20 samples."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100.0) >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return None


def end_to_end(ledger, setup_s):
    lat = ledger.latencies
    m = {
        "setup_s": setup_s,
        # items over the sum of their mean latencies: a part-done last
        # pass does not tilt the mix toward the items it reached
        "ops_per_s": len(ledger.by_op) / sum(statistics.fmean(v) for v in ledger.by_op),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": ledger.failed / ledger.attempted,
    }
    t = tail(lat)
    if t is not None:
        m["op_tail_ms"] = t[1] * 1e3
    return m, t


def machine_facts(deflap):
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "deflap": deflap.__version__,
    }


def load_references(name, size):
    if size != "full":
        return {}
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh).get(name, {})


def print_metrics(metrics, unit_of, notes=None):
    notes = notes or {}
    for name in sorted(metrics):
        print("%-40s %-22r %-6s %s" % (name, metrics[name], unit_of(name), notes.get(name, "")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    result, _ = bench(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(json.dumps(result))
    return 0


def bench(workload, seed, seconds, trace, size="full", inject=None):
    """Run one benchmark; returns (result line, facts).

    ``inject`` (self-test only) is called with the workload and the ledger
    before the timed phase, to plant a wrong answer.
    """
    started = time.perf_counter()
    deflap = import_deflap()
    import_s = time.perf_counter() - started
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.stderr.write("unknown workload %r; choose from %s\n"
                         % (workload, ", ".join(workloads.WORKLOADS)))
        sys.exit(2)
    wl = workloads.WORKLOADS[workload](size)
    items, setup_median = setup(wl, seed)
    setup_s = import_s + setup_median
    ledger = Ledger(wl, items, load_references(workload, size))
    if inject is not None:
        inject(wl, ledger)
    busy, passes = run_untraced(wl, items, ledger, seconds)
    e2e, tail_at = end_to_end(ledger, setup_s)
    facts = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "machine": machine_facts(deflap),
        "inputs": wl.describe(items, ledger.first),
        "passes": passes,
        "ops": len(ledger.latencies),
        "op_seconds": busy,
        "reference_checked": ledger.reference_checked,
        "op_tail_percentile": tail_at[0] if tail_at else None,
        "end_to_end": e2e,
    }
    notes = {"op_p50_ms": "(median of %d ops)" % len(ledger.latencies),
             "fail_frac": "(%d of %d ops)" % (ledger.failed, ledger.attempted)}
    if tail_at is not None:
        notes["op_tail_ms"] = "(p%g of %d ops)" % (tail_at[0], len(ledger.latencies))
    else:
        notes["op_tail_ms"] = "(omitted: fewer than 20 ops)"
    print("# end-to-end, untraced")
    print_metrics(e2e, END_TO_END_UNITS.get, notes)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in e2e.items() if k in END_TO_END_GATED}
    if trace:
        layer = traced(wl, seed, ledger, workload)
        layer["trace.ops_per_s_untraced"] = e2e["ops_per_s"]
        layer["trace.overhead_ratio"] = e2e["ops_per_s"] / layer["trace.ops_per_s_traced"]
        print("# per layer, traced pass")
        print_metrics(layer, per_layer_unit)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
    facts["wall_s"] = time.perf_counter() - started
    for line in ledger.problems[:20]:
        sys.stderr.write("FAILED %s\n" % line)
    print("facts " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result, facts



def traced(wl, seed, ledger, workload):
    """Scalar microbench, then one traced set-up and pass; per-layer metrics."""
    import tracing

    layer = tracing.scalar_microbench()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        items = wl.setup(seed)
        tracer.op = None
        busy = run_pass(wl, items, ledger, tracer)
    finally:
        tracer.uninstall()
    layer.update(tracer.layer_metrics())
    layer["trace.ops_per_s_traced"] = len(items) / busy
    tracer.write(os.path.join(ROOT, ".bench_out", "trace-%s-seed%d.jsonl" % (workload, seed)))
    return layer


if __name__ == "__main__":
    sys.exit(main())
