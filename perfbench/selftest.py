"""Self-test of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json names, with their units, plus all six
   end-to-end metrics in its report, and fails no op.
2. Wrong answers planted in the checker's path are counted as failed:
   swapped PROPERTY_CHECKS entries, an inertia count off by one, an
   eps_k bound that is too small, and a stored reference that does not
   match.

Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import io
import json
import os
import sys

import run

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")
SECONDS = 0.01


def quiet_bench(workload, trace, inject=None):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.bench(workload, 0, SECONDS, trace, size="tiny", inject=inject)


def check_metrics(spec, failures):
    for workload in sorted(spec_workloads(spec)):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, facts = quiet_bench(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                                "units %s" % (label, sorted(set(want) - set(got)),
                                              sorted(set(got) - set(want)),
                                              sorted(n for n in want if n in got
                                                     and got[n] != want[n])))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append("%s: %d of %d ops failed" % (label, result["failed"],
                                                             result["attempted"]))
            e2e = facts["end_to_end"]
            expected = set(run.END_TO_END_UNITS)
            if facts["ops"] < 20:
                expected.discard("op_tail_ms")
            if set(e2e) != expected or e2e["fail_frac"] != 0:
                failures.append("%s: report has %s, fail_frac %s"
                                % (label, sorted(e2e), e2e.get("fail_frac")))


def spec_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def planted(workload, inject, failures, label):
    result, _ = quiet_bench(workload, 0, inject)
    if result["correct"] or result["failed"] < 1:
        failures.append("planted %s was not counted as failed" % label)


def check_planted(failures):
    import deflap
    from deflap import properties

    checks = properties.PROPERTY_CHECKS
    a, b = "radius-above-one", "pendant-pair-floor"
    saved = dict(checks)

    def swap(wl, ledger):
        checks[a], checks[b] = saved[b], saved[a]

    def violate(wl, ledger):
        checks[a] = lambda tree, s, tol, shared: properties.PropertyReport(a, False, {})

    original_count = deflap.count_eigenvalues

    def off_by_one(wl, ledger):
        def count(tree, s, c):
            pos, neg, zero = original_count(tree, s, c)
            return pos + 1, neg, zero

        deflap.count_eigenvalues = count

    original_eps = deflap.epsilon_k

    def tight_eps(wl, ledger):
        def eps(run_, target_digits=None):
            bound = original_eps(run_, target_digits)
            return deflap.EpsilonBound(bound.k, bound.value / 10 ** 6, bound.certified)

        deflap.epsilon_k = eps

    def wrong_reference(wl, ledger):
        ledger.references = {wl.key(ledger.items[0]): "not the right answer"}

    try:
        for workload, inject, label in (
            ("property_sweep", swap, "swap of two PROPERTY_CHECKS entries"),
            ("property_sweep", violate, "violation report"),
            ("big_tree", off_by_one, "inertia off by one"),
            ("caterpillar", tight_eps, "eps_k below lam - rho"),
            ("property_sweep", wrong_reference, "reference mismatch"),
        ):
            try:
                planted(workload, inject, failures, label)
            finally:
                checks.clear()
                checks.update(saved)
                deflap.count_eigenvalues = original_count
                deflap.epsilon_k = original_eps
    finally:
        checks.clear()
        checks.update(saved)


def main():
    with open(BENCH) as fh:
        spec = json.load(fh)
    run.import_deflap()
    failures = []
    check_metrics(spec, failures)
    check_planted(failures)
    for line in failures:
        print("FAIL " + line)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
