#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) against its bound.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads compile-suite ...]

Workloads are interleaved (one run of each per seed) so host drift spreads
evenly over them. The command and bounds come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=names)
    args = ap.parse_args()

    values = {w: {} for w in args.workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in args.workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect run\n{out.stdout}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    print(f"\n{'workload':14} {'metric':18} {'median':>12} {'spread':>8} {'bound':>6}  ok")
    for w in args.workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            ok = "yes" if spread <= bound / 3 else ("within" if spread <= bound else "NO")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{w:14} {name:18} {med:12.5g} {spread:8.4f} {bound:6.3f}  {ok}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
