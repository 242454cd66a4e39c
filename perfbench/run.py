#!/usr/bin/env python3
"""Build and run the appvsweb benchmark.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload campaign_cold --seed 2016 --seconds 12 --trace 0

Workloads: campaign_cold, campaign_warm, population, serve_churn. The
harness is built from source (a package of its own in perfbench/, into
$CARGO_TARGET_DIR, default .bench_build). The last stdout line is the
JSON result; the full record, stamped with its provenance, is also
written to perfbench/results/<workload>-seed<N>-trace<T>.json.

Compare two records (refused when their stamps differ in anything but
the git revision):

    python3 perfbench/run.py compare BEFORE.json AFTER.json
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["campaign_cold", "campaign_warm", "population", "serve_churn"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (the harness spawns child processes) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build():
    """Build the harness; return the executable's path, or None."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    code = run_group(cmd, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return None
    return os.path.join(ROOT, target, "release", "perfbench")


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def compare(before_path, after_path):
    with open(before_path) as f:
        before = json.load(f)
    with open(after_path) as f:
        after = json.load(f)
    a, b = before["provenance"], after["provenance"]
    differ = sorted(k for k in set(a) | set(b) if k != "git_rev" and a.get(k) != b.get(k))
    if differ:
        for k in differ:
            print(f"stamp differs in {k}: {a.get(k)!r} vs {b.get(k)!r}", file=sys.stderr)
        print("refusing to compare results taken under different conditions", file=sys.stderr)
        return 1
    print(f"{a.get('git_rev')} -> {b.get('git_rev')} ({a['workload']}, seed {a['seed']})")
    for name in sorted(set(before["metrics"]) & set(after["metrics"])):
        x, y = before["metrics"][name], after["metrics"][name]
        ratio = f"{y / x:8.3f}x" if x else "       -"
        print(f"  {name:<34} {x:>16.4f} {y:>16.4f} {ratio}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            print("usage: run.py compare BEFORE.json AFTER.json", file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3])

    parser = argparse.ArgumentParser(description="appvsweb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    for needed in ["Cargo.toml", os.path.join("crates", "core"), os.path.join("crates", "bench")]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2

    exe = build()
    if exe is None:
        return 1
    results = os.path.join("perfbench", "results")
    out = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [
        exe, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--git-rev", git_rev(),
        "--results", results,
        "--out", out,
    ]
    sys.stdout.flush()
    return run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
