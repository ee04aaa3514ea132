#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--seconds N] [--out runs.json]

Runs from the repository root with the command and `run_seconds` of
BENCHMARK.json. For each workload and metric it prints the median of the
per-run values and the spread (third minus first quartile, as
`statistics.quantiles(values, n=4)` gives them, over the median), next to
the metric's bound. `--out` keeps every run's result object.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = {}
    ok = True
    for w in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            res["seed"] = seed
            results.append(res)
            if not res["correct"]:
                ok = False
            print(f"{w} seed {seed}: correct {res['correct']} failed {res['failed']}/"
                  f"{res['attempted']}", file=sys.stderr)
        runs[w] = results
        if len(results) < 2:
            continue
        print(f"\n{w} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER BOUND" if spread > bound else ("over bound/3" if spread > bound / 3 else "ok")
            print(f"  {name:24} median {med:<14.6g} spread {spread:7.4f}  "
                  f"bound {bound if bound is not None else '-':<5} {flag}")
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
