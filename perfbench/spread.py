#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and
quartile spread ((Q3 - Q1) / median, quartiles as statistics.quantiles
computes them), next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload pandas --seeds 1 10 [--seconds 30] [--trace 0]

Run from the repository root. Each run's result line is appended to
--log (default .bench_trace/spread.jsonl) so the figures can be re-read.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--log", default=os.path.join(".bench_trace", "spread.jsonl"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)

    values = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout + run.stderr)
            sys.exit(f"seed {seed}: exit code {run.returncode}")
        result = json.loads(lines[-1])
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                           if k in bounds or args.trace == "1"), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}  status")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            print(f"{name:<32} {med:>14.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        status = ""
        if bound is not None:
            status = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:<32} {med:>14.6g} {spread:>8.4f} {bound if bound is not None else '':>6}  {status}")


if __name__ == "__main__":
    main()
