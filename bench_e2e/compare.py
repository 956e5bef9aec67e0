#!/usr/bin/env python3
"""Repeat-run comparison for bench_e2e.

Spread of one configuration over several seeds:

    python3 bench_e2e/compare.py --workload feed_csv --runs 10

prints, per end-to-end metric, the median, the quartile spread
(Q3 - Q1) / median as statistics.quantiles(n=4) gives the quartiles, and the
metric's bound from BENCHMARK.json.

A/B comparison, runs interleaved A, B, A, B, ... on the same seeds:

    python3 bench_e2e/compare.py --workload feed_csv --runs 5 \\
        --b-args "--sink-spin-ns 2000"

flags every end-to-end metric whose B median is worse than the A median by
more than its bound. With --trace the per-layer metrics are compared instead
(they have no bound; the ratio is printed).
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, os.path.join(ROOT, "bench_e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("result check failed: %s" % " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--b-args", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sides = {"A": []}
    if args.b_args is not None:
        sides["B"] = shlex.split(args.b_args)
    values = {side: {} for side in sides}
    for i in range(args.runs):
        seed = i + 1
        order = list(sides) if i % 2 == 0 else list(reversed(list(sides)))
        for side in order:
            got = run_once(args.workload, seed, seconds, args.trace, sides[side])
            for name, v in got.items():
                values[side].setdefault(name, []).append(v)
            print("run %d side %s seed %d: %s" % (
                i + 1, side, seed,
                " ".join("%s=%.6g" % kv for kv in sorted(got.items()))),
                flush=True)

    regressions = []
    print("\n%-40s %14s %8s %14s %8s %7s %s" % (
        "metric", "A median", "A sprd", "B median", "B/A", "bound", "verdict"))
    for name in sorted(values["A"]):
        a = values["A"][name]
        d = defs.get(name, {})
        bound = d.get("bound")
        row = "%-40s %14.6g %8.3f" % (name, statistics.median(a),
                                      spread(a) if len(a) >= 2 else 0)
        verdict = ""
        if "B" in values:
            b = values["B"][name]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("inf")
            row += " %14.6g %8.3f" % (mb, ratio)
            if bound is not None:
                worse = (ratio - 1) if d.get("better") == "lower" else (1 - ratio)
                if worse > bound:
                    verdict = "REGRESSION"
                    regressions.append(name)
                else:
                    verdict = "ok"
        elif bound is not None and len(a) >= 2:
            row += " %14s %8s" % ("", "")
            verdict = "steady" if spread(a) <= bound / 3 else "NOISY"
        else:
            row += " %14s %8s" % ("", "")
        row += " %7s %s" % ("" if bound is None else "%.2f" % bound, verdict)
        print(row)
    if regressions:
        print("\nflagged: " + ", ".join(regressions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
