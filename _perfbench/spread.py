#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report, per
end-to-end metric, the median and the interquartile range as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 _perfbench/spread.py --workloads closure service_mix --seeds 10

Run from the root of a checkout; the runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    for w in a.workloads:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(a.seconds),
                                    "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: wrong answers")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(k, 0.1)
            worst[k] = max(worst.get(k, 0.0), spread / bound)
            print(f"{w:18} {k:12} median {med:<12.6g} spread {spread:7.2%} "
                  f"bound {bound:.0%} ({spread / bound:.2f} of it) values "
                  + " ".join(f"{v:.4g}" for v in vs), flush=True)
    print("worst share of bound per metric:",
          json.dumps({k: round(v, 3) for k, v in worst.items()}))


if __name__ == "__main__":
    main()
