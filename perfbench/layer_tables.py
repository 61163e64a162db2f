#!/usr/bin/env python3
"""Generate LAYERS.md ("where a step goes", "where a certificate goes").

Runs the traced benchmark once per workload and turns its per-layer
metrics and span self times into the tables of perfbench/LAYERS.md.

    python3 perfbench/layer_tables.py [--seconds 20] [--seed 1]
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "out")
WORKLOADS = ("philo", "ring", "skewed")
VERIFY_MODEL = {"philo": "philosophersAtomic(256)", "ring": "tokenRing(4096)",
                "skewed": "skewedPairs(4096, 512, 4)"}
ENGINE_MODEL = {"philo": "philosophersAtomic(2048)", "ring": "tokenRing(4096)",
                "skewed": "skewedPairs(4096, 512, 4)"}


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = json.loads(lines[-2])["provenance"]
    if not result["correct"]:
        sys.exit(f"{workload}: {result['failed']} of {result['attempted']} operations failed")
    with open(os.path.join(OUT, f"{workload}-seed{seed}-self.json")) as f:
        self_s = json.load(f)
    return {k: v["value"] for k, v in result["metrics"].items()}, prov, self_s


def pct(part, whole):
    return f"{100.0 * part / whole:.0f}%" if whole else "-"


def row(cells):
    return "| " + " | ".join(cells) + " |"


def tables(runs, seed, seconds):
    prov = runs["philo"][1]
    out = [
        "# Where the time goes",
        "",
        "Generated by `python3 perfbench/layer_tables.py --seed "
        f"{seed} --seconds {seconds:g}` from one traced run per workload "
        "(`--trace 1`). Do not edit by hand.",
        "",
        f"Host: {prov['nproc']} CPUs, {prov['cpu_model']}; build {prov['build_type']}; "
        f"commit {prov['git_sha'][:12]} (dirty: {prov['git_dirty']}).",
        "Layer times are medians over the run's samples; counts come from its "
        "first window or call and repeat exactly for a seed.",
        "",
        "## Where a step goes: SequentialEngine",
        "",
        "The sequential loop rebuilt from its public calls and timed per call "
        "(ns per step; share of the step).",
        "",
        row(["workload", "model", "pick", "execute", "cache update", "loop (self)",
             "step", "enabled / step", "connector recomputes / step"]),
        row(["---"] * 9),
    ]
    for w in WORKLOADS:
        m = runs[w][0]
        parts = [m["engine.pick_ns"], m["core.execute_ns"], m["core.cache_update_ns"],
                 m["engine.loop_self_ns"]]
        total = sum(parts)
        out.append(row([w, ENGINE_MODEL[w]]
                       + [f"{p:,.0f} ({pct(p, total)})" for p in parts]
                       + [f"{total:,.0f}", f"{m['core.enabled_mean']:.1f}",
                          f"{m['core.recomputes_per_step']:.2f}"]))
    out += [
        "",
        "## Where a step goes: ShardedEngine, 4 shards",
        "",
        "Phase times from `ShardedStats`, in ns per shard per epoch (share of "
        "the epoch); idle is barrier wait.",
        "",
        row(["workload", "steps/s", "plan", "cross", "local", "idle", "lock wait",
             "steps / epoch", "local ns / step", "stalled epochs", "steals", "moved"]),
        row(["---"] * 12),
    ]
    for w in WORKLOADS:
        m = runs[w][0]
        parts = [m[f"shard.{k}_ns_per_epoch"] for k in ("plan", "cross", "local", "idle",
                                                         "lock_wait")]
        total = sum(parts)
        out.append(row([w, f"{m['shard.steps_per_s']:,.0f}"]
                       + [f"{p:,.0f} ({pct(p, total)})" for p in parts]
                       + [f"{m['shard.steps_per_epoch']:.1f}",
                          f"{m['shard.local_ns_per_step']:,.0f}",
                          pct(m["shard.stalled_epoch_ratio"], 1),
                          f"{m['shard.steal_events']:.0f}",
                          f"{m['shard.components_moved']:.0f}"]))
    out += [
        "",
        "## Where a certificate goes: D-Finder",
        "",
        "`checkDeadlockFreedom` run as its three public stages (seconds; share).",
        "",
        row(["workload", "model", "invariants", "net", "refine", "total", "traps",
             "rounds", "trap queries", "SAT decisions", "SAT conflicts"]),
        row(["---"] * 11),
    ]
    for w in WORKLOADS:
        m = runs[w][0]
        parts = [m["verify.invariants_s"], m["verify.net_s"], m["verify.refine_s"]]
        total = sum(parts)
        out.append(row([w, VERIFY_MODEL[w]]
                       + [f"{p:.4f} ({pct(p, total)})" for p in parts]
                       + [f"{total:.4f}"]
                       + [f"{m[k]:,.0f}" for k in ("verify.traps", "verify.rounds",
                                                   "verify.trap_queries", "sat.decisions",
                                                   "sat.conflicts")]))
    out += [
        "",
        "## Set-up",
        "",
        row(["workload", "parse", "SequentialEngine", "partition", "ShardedEngine"]),
        row(["---"] * 5),
    ]
    for w in WORKLOADS:
        m = runs[w][0]
        out.append(row([w] + [f"{m[k]:.4f} s" for k in (
            "frontends.parse_s", "engine.seq_ctor_s", "shard.partition_s",
            "shard.engine_ctor_s")]))
    out += [
        "",
        "## Self time by span",
        "",
        "Each span's duration minus its children's, summed over the traced run, "
        "as a share of the run (top 8). Per-step spans cover the first window only; "
        "later windows are timed in sums.",
        "",
        row(["workload", "span", "self s", "share"]),
        row(["---"] * 4),
    ]
    for w in WORKLOADS:
        self_s = runs[w][2]
        total = sum(self_s.values())
        for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])[:8]:
            out.append(row([w, f"`{name}`", f"{s:.3f}", pct(s, total)]))
    out += [
        "",
        "## Tracing overhead",
        "",
        row(["workload", "seq step (replica / engine)", "certify (staged / plain)",
             "sharded (sink off / on)"]),
        row(["---"] * 4),
    ]
    for w in WORKLOADS:
        m = runs[w][0]
        out.append(row([w] + [f"{m[k]:.3f}" for k in (
            "trace.overhead_ratio", "trace.overhead_ratio.certify_s",
            "trace.overhead_ratio.sharded")]))
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    runs = {w: traced(w, args.seed, args.seconds) for w in WORKLOADS}
    with open(os.path.join(HERE, "LAYERS.md"), "w") as f:
        f.write(tables(runs, args.seed, args.seconds))
    print("wrote perfbench/LAYERS.md")


if __name__ == "__main__":
    main()
