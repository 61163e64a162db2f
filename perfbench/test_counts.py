#!/usr/bin/env python3
"""The benchmark's own test: every deterministic per-layer count repeats.

Runs the traced benchmark twice with one seed on each workload and fails
unless every count below (marked with a dagger in README.md) is identical
across the two runs, and both runs report no failed operation.

    python3 perfbench/test_counts.py [--seconds 2] [--seed 7] [--workload W ...]
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DETERMINISTIC = (
    "core.enabled_mean",
    "core.recomputes_per_step",
    "shard.steps_per_epoch",
    "shard.cross_accept_ratio",
    "shard.stalled_epoch_ratio",
    "shard.quota_unused_ratio",
    "shard.load_imbalance",
    "shard.rebalance_decisions",
    "shard.components_moved",
    "shard.steal_events",
    "verify.traps",
    "verify.rounds",
    "verify.trap_queries",
    "sat.decisions",
    "sat.conflicts",
    "sat.propagations",
    "sat.vars",
    "verify.parallel_inline_ratio",
    "verify.recert_traps_kept_ratio",
    "verify.recert_traps_new_per_edit",
)


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=["philo", "ring", "skewed"])
    args = ap.parse_args()
    problems = []
    for w in args.workload:
        a, b = (traced_run(w, args.seed, args.seconds) for _ in range(2))
        for run in (a, b):
            if not run["correct"] or run["failed"] != 0:
                problems.append(f"{w}: {run['failed']} of {run['attempted']} operations failed")
        for name in DETERMINISTIC:
            va = a["metrics"].get(name, {}).get("value")
            vb = b["metrics"].get(name, {}).get("value")
            if va is None or va != vb:
                problems.append(f"{w}: {name} = {va} then {vb}")
        print(f"{w}: {len(DETERMINISTIC)} counts checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
