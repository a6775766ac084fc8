#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads a,b] [--out FILE]

For every workload and seed it runs perfbench/run.py once untraced, then
prints, per end-to-end metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json. --out writes the same figures, with
every run's values and seeds, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            start = time.time()
            out = subprocess.run(
                [sys.executable, spec["command"][1], "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, check=True).stdout.decode()
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: %d failed op(s)" % (w, seed, result["failed"]))
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "wall_s": round(time.time() - start, 1),
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print("%s seed %d: %.1f s" % (w, seed, runs[-1]["wall_s"]), file=sys.stderr)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name]}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("%-14s %-15s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.4f  bound %.2f"
                  % (w, name, med, q1, q3, spread, bounds[name]))
        report["workloads"][w] = {"summary": summary, "runs": runs}
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
