"""Regenerate the stored integer outputs the benchmark checks against.

    python3 perfbench/make_references.py --workload big_tree --seeds 0-31

Runs one pass of the workload per seed at full size, checks every op
live, and records each op's integer outputs (leaf counts, inertia
triples, property verdicts) under a key that names its input. The
workload's section of references.json is replaced; other sections are
kept. Run it only on a commit whose outputs are known to be right.
"""

import argparse
import json
import os
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-31", help="inclusive range, as 0-31")
    args = parser.parse_args()
    run.import_deflap()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    refs = {}
    for seed in parse_seeds(args.seeds):
        items = wl.setup(seed)
        ledger = run.Ledger(wl, items, {})
        run.run_pass(wl, items, ledger)
        if ledger.failed:
            sys.exit("seed %d failed its checks:\n%s" % (seed, "\n".join(ledger.problems)))
        for item, value in zip(items, ledger.first):
            key = wl.key(item)
            if refs.setdefault(key, value) != value:
                sys.exit("input %s gave two different outputs" % key)
        print("seed %d: %d ops, %d keys so far" % (seed, len(items), len(refs)), flush=True)
    path = os.path.join(run.HERE, "references.json")
    with open(path) as fh:
        stored = json.load(fh)
    stored[args.workload] = refs
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
