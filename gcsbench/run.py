#!/usr/bin/env python3
"""Build and run one workload of the gcsbench benchmark.

Run from the repository root:

    python3 gcsbench/run.py --workload live-abcast --seed 1 --seconds 10 --trace 0

The benchmark program is built from source (release profile) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. With --trace 0 the
untraced program runs and the end-to-end metrics named in BENCHMARK.json are
printed. With --trace 1 the untraced program runs first, then the traced one
(counting allocator, spans around every call into the system) on the same
seed; the per-layer metrics come from the traced run, and
trace.overhead_cpu_pct compares its CPU per op with the untraced run's. The
last line of standard output is the result as JSON. Any failed output check
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    # Not --locked: the repository crates may change their (vendored, path)
    # dependencies, and the benchmark must still build against them.
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr so the result stays the last stdout line.
    rc = subprocess.call(cmd, env=env, stdout=sys.stderr)
    if rc != 0:
        fail(f"build failed ({rc})")


def run(binary, args, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} did not finish within {RUN_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"{os.path.basename(binary)} exited {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(binary)} printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    result = run(os.path.join(release, "gcsbench"), args)
    if args.trace:
        untraced_cpu = result["metrics"]["cpu_us_per_op"]["value"]
        spans_dir = os.path.join(target, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
        result = run(os.path.join(release, "gcsbench-traced"), args, ("--spans", spans))
        traced_cpu = result["metrics"]["cpu_us_per_op"]["value"]
        result["metrics"]["trace.overhead_cpu_pct"] = {
            "value": (traced_cpu - untraced_cpu) / untraced_cpu * 100.0, "unit": "%"}

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {metrics[m['name']]['unit']}, declared in {m['unit']}")
    for m in wanted:
        print(f"{m['name']:34} {metrics[m['name']]['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))


if __name__ == "__main__":
    main()
