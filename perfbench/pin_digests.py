#!/usr/bin/env python3
"""Regenerates perfbench/reference_digests.json.

Runs the minimum set of repetitions of every workload (the ones that
make up the digest) for each seed and records the digest. run.py refuses a run whose digest differs from the pinned one,
so re-pin only when a change is meant to alter simulator output.

    python3 perfbench/pin_digests.py [--seeds 0-10] [--workloads a,b]
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark runner: build + workload list)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0-10")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()

    binary = run.build()["untraced"]
    pinned = run.load_reference_digests()
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0.01", "--setup-reps", "1"],
                check=True, capture_output=True, text=True).stdout
            digest = json.loads(out)["digest"]
            pinned.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", flush=True)
    with open(run.REFERENCE_DIGESTS, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
