#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S] [--trace]

Run from the repository root. Runs every listed workload `--runs` times,
each with another seed, and prints for each end-to-end metric its median,
quartiles and spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) against the
metric's bound. `--trace` runs the traced harness instead and prints the
count-repeatability report: which per-layer counts repeat exactly across
all units of all runs and which do not (those are not comparable across
commits).
Exits non-zero if a run fails, reports incorrect output, or a spread other
than that of `setup_s` exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output ({result['failed']} failed)")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, elapsed, set(detail.get("varying_across_units", []))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for w in names:
        timed = [run_once(bench, w, args.first_seed + i, seconds, args.trace)
                 for i in range(args.runs)]
        runs = [m for m, _, _ in timed]
        took = [t for _, t, _ in timed]
        within_run = set().union(*(v for _, _, v in timed))
        print(f"## {w}: {args.runs} runs of {seconds}s, each took "
              f"{min(took):.1f}-{max(took):.1f}s")
        if args.trace:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            same, varies = [], []
            for name, unit in units.items():
                vals = [r[name] for r in runs]
                if unit != "count" or not any(vals):
                    continue
                repeats = len(set(vals)) == 1 and name not in within_run
                (same if repeats else varies).append((name, vals))
            print("counts that repeat exactly: "
                  + (", ".join(f"{n}={v[0]:g}" for n, v in same) or "none"))
            for n, v in varies:
                print(f"count that varies (not comparable across commits): {n}, "
                      f"run medians {min(v):g}..{max(v):g}")
            for n in ("trace.wall_s", "trace.unattributed_share",
                      "verifier.verify_share", "generator.propose_share", "proof.hit_share"):
                vals = [r[n] for r in runs]
                if any(vals):
                    print(f"{n}: median {statistics.median(vals):.4g}")
            continue
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            q1, med, q3, s = spread(vals)
            verdict = "steady" if s < m["bound"] / 3 else (
                "within bound" if s <= m["bound"] else "TOO NOISY")
            if s > m["bound"] and m["name"] != "setup_s":
                ok = False
            print(f"{m['name']:>12}: median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {s:.3f} / bound {m['bound']}  {verdict}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
