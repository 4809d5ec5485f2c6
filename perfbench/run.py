#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fuzz|table2|bigtu --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) inside the checkout. The last line of standard
output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. A traced run also writes its
spans, as Chrome trace_event JSON, to spans/<workload>-<seed>.json in
the build directory. Progress and the per-layer table go to standard
error.

Exits non-zero without printing a result when the build fails, the
benchmark fails or times out, or its output does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure until a build system exists, then bring the binary up
    to date."""
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed not negative")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target)
    build_dir = build_dir / "perfbench"
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans" / f"{args.workload}-{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in wanted] != list(got):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")

    correct, failed = result["correct"], result["failed"]
    if args.seed == manifest["default_seed"]:
        want = manifest["digests"][args.workload]
        if result["input_digest"] != want:
            print(f"perfbench: {args.workload} inputs changed: digest "
                  f"{result['input_digest']}, recorded {want}",
                  file=sys.stderr)
            correct, failed = False, failed + 1
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": got}))


if __name__ == "__main__":
    main()
