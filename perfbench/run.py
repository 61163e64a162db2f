#!/usr/bin/env python3
"""Build the cbip library from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload philo|ring|skewed --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds a
Release build under .bench_build/perfbench (a few minutes); later calls
rebuild incrementally. The benchmark's last stdout line is one JSON object
with "correct", "attempted", "failed" and "metrics". Traced runs (--trace 1)
also write Chrome trace-event JSON and per-layer self times under
.bench_build/perfbench/out.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("philo", "ring", "skewed")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; False on failure."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"library sources missing: no {needed} next to perfbench/")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "--git-sha": sha or "not-a-git-checkout",
        "--git-dirty": "unknown" if dirty is None else ("1" if dirty else "0"),
        "--cpu-model": cpu,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    for flag, value in provenance().items():
        cmd += [flag, value]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within 170 s")
        return 3
    if done.returncode != 0:
        log(f"benchmark exited with code {done.returncode}")
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
