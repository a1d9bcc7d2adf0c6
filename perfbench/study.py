#!/usr/bin/env python3
"""Steadiness study: run workloads on several seeds and summarize each
metric as the benchmark's acceptance rule reads it.

    python3 perfbench/study.py --workloads knee,walk,serve --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--out FILE]

Run from the root of a checkout.  For each workload and metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)), min/max
and the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json.  --out appends every run's JSON result, one per line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="knee,walk,serve")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if p.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            runs.append(result)
        shares = {r.get("failed", 0) / max(1, r.get("attempted", 1)) for r in runs}
        print(f"== {w}: {len(runs)} runs, failed shares {sorted(shares)}")
        names = [n for n in runs[0].get("metrics", {})] if runs else []
        for n in names:
            vals = [r["metrics"][n]["value"] for r in runs if n in r.get("metrics", {})]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            mid = statistics.median(vals)
            spread = (q3 - q1) / mid if mid else float("inf")
            bound = bounds.get(n)
            flag = ""
            if bound is not None and n != "setup_s":
                flag = "ok" if spread <= bound / 3 else ("WIDE" if spread > bound else "over-third")
            print(f"  {n:28s} median {mid:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"min {min(vals):12.6g}  max {max(vals):12.6g}  spread {spread:6.3f}"
                  + (f"  bound {bound}  {flag}" if bound is not None else ""))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
