#!/usr/bin/env python3
"""Compare bench --json-out results against a committed baseline.

The bench harnesses emit one JSON document each (schema_version 1,
see DESIGN.md "JSON schemas"):

    {"schema_version": 1, "bench": "<name>", "rows": [
        {"label": "...", "<metric>": <number>, ..., "sim": {...}}, ...]}

BENCH_baseline.json at the repo root is the merged form:

    {"schema_version": 1, "benches": {"<name>": <report doc>, ...}}

Two modes:

    benchdiff.py merge -o BENCH_baseline.json out1.json out2.json ...
        Merge per-harness documents into a baseline (how the committed
        baseline is [re]generated).

    benchdiff.py diff BENCH_baseline.json current1.json ...
        Compare current documents (single reports or merged files)
        against the baseline. Exits 1 when any gated metric changed at
        all, in either direction, or when a baseline row/metric
        disappeared (coverage loss); new rows are reported but pass.

Only deterministic metrics are compared, and they are compared
exactly: cycle-like keys (equal to or ending in "cycles", or starting
with "cycles"), the batch-service counters (TU outcomes, compile
attempts, ladder demotions) and the static-analysis shape columns of
dataflowbench (CFG blocks, live registers, bitset words, inferred FIFO
depth, verdict, queues with traffic). All of them are pure functions of
the sources and options, and the simulator is deterministic, so any
move is a real change to code generation, the simulator, the retry
policy or an analysis. A lower cycle count is gated too: an
unexplained improvement is as suspect as a regression. A change that
moves a gated number ships with a regenerated baseline (merge mode)
and says why in CHANGES.md.

Host-dependent throughput metrics (wall-clock times, cycles/second —
anything whose key mentions "wall" or "per_sec", as emitted by the
simthroughput harness and wmc --manifest host sections) are NEVER
compared, even when unknown keys are added later: they vary from
machine to machine and would trip the gate with noise rather than
regressions.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"benchdiff: {path}: {e}")
    ver = doc.get("schema_version")
    if ver != 1:
        sys.exit(f"benchdiff: {path}: unsupported schema_version {ver!r}")
    return doc


def as_benches(doc, path):
    """Normalize a document to {bench_name: report}."""
    if "benches" in doc:
        return doc["benches"]
    if "bench" in doc:
        return {doc["bench"]: doc}
    sys.exit(f"benchdiff: {path}: neither a bench report nor a baseline")


# Markers of host-dependent (wall-clock) metrics: never compared, no
# matter what other patterns the key matches.
HOST_METRIC_MARKERS = ("wall", "per_sec")


def is_host_metric(key):
    k = key.lower()
    return any(m in k for m in HOST_METRIC_MARKERS)


# Deterministic counters gated alongside the cycle keys: the batch
# service's TU outcomes (bench/batchthroughput.cc) and the analysis
# shape columns (bench/dataflowbench.cc).
COUNTERS = frozenset({
    "tus", "ok", "ok_degraded", "failed", "quarantined", "attempts",
    "demotions",
    "fifo_min_depth", "deadlock_free", "queues_analyzed", "blocks",
    "regs", "bitset_words",
})


def is_gated_metric(key):
    if is_host_metric(key):
        return False
    if key in COUNTERS:
        return True
    return key == "cycles" or key.endswith("cycles") or \
        key.startswith("cycles")


def row_metrics(row):
    metrics = {k: v for k, v in row.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)
               and is_gated_metric(k)}
    # Attached simulator counters: total cycles is the headline number.
    sim = row.get("sim")
    if isinstance(sim, dict) and isinstance(sim.get("cycles"), int):
        metrics["sim.cycles"] = sim["cycles"]
    return metrics


def merge(args):
    benches = {}
    for path in args.inputs:
        for name, report in as_benches(load(path), path).items():
            if name in benches:
                sys.exit(f"benchdiff: duplicate bench {name!r} in {path}")
            benches[name] = report
    out = {"schema_version": 1, "benches": benches}
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"benchdiff: wrote {args.output} "
          f"({len(benches)} benches)")
    return 0


def diff(args):
    base = as_benches(load(args.baseline), args.baseline)
    current = {}
    for path in args.current:
        current.update(as_benches(load(path), path))

    failures = []
    compared = 0

    for name, cur_report in sorted(current.items()):
        base_report = base.get(name)
        if base_report is None:
            print(f"  new bench {name} (not in baseline)")
            continue
        base_rows = {r["label"]: r for r in base_report.get("rows", [])}
        cur_rows = {r["label"]: r for r in cur_report.get("rows", [])}
        for label, brow in base_rows.items():
            crow = cur_rows.get(label)
            if crow is None:
                failures.append(f"{name}/{label}: row disappeared")
                continue
            cmetrics = row_metrics(crow)
            for key, bval in row_metrics(brow).items():
                if key not in cmetrics:
                    failures.append(f"{name}/{label}/{key}: "
                                    f"metric disappeared")
                    continue
                cval = cmetrics[key]
                compared += 1
                if cval != bval:
                    failures.append(f"{name}/{label}/{key}: "
                                    f"{bval:g} -> {cval:g}")
        for label in cur_rows.keys() - base_rows.keys():
            print(f"  new row {name}/{label} (not in baseline)")

    print(f"benchdiff: compared {compared} gated metrics across "
          f"{len(current)} bench(es)")
    if failures:
        print("benchdiff: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("benchdiff: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)

    mp = sub.add_parser("merge", help="merge reports into a baseline")
    mp.add_argument("-o", "--output", required=True)
    mp.add_argument("inputs", nargs="+")
    mp.set_defaults(func=merge)

    dp = sub.add_parser("diff", help="compare current against baseline")
    dp.add_argument("baseline")
    dp.add_argument("current", nargs="+")
    dp.set_defaults(func=diff)

    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
