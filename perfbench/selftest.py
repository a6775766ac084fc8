#!/usr/bin/env python3
"""Prove that the benchmark's checks feed its failure count.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py briefly twice: once as is, which
must report no failed op and correct = true, and once with --inject-fault,
which corrupts every 10th op's answers before the check and must report
failed > 0, correct = false and ok_frac < 1. Exits non-zero on the first
expectation that does not hold.
"""

import json
import subprocess
import sys

WORKLOADS = ["profiles-max", "catalog-page", "watch-churn", "approx-static"]


def run(workload, inject):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", "0"]
    if inject:
        cmd.append("--inject-fault")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
    return json.loads(out.strip().splitlines()[-1])


def main():
    for w in WORKLOADS:
        clean = run(w, inject=False)
        if clean["failed"] != 0 or not clean["correct"]:
            sys.exit("%s: clean run reports %d failed op(s)" % (w, clean["failed"]))
        bad = run(w, inject=True)
        ok_frac = bad["metrics"]["ok_frac"]["value"]
        if bad["failed"] == 0 or bad["correct"] or ok_frac >= 1:
            sys.exit("%s: injected wrong answers went unnoticed" % w)
        print("%s: clean 0/%d failed; injected %d/%d failed (ok_frac %.3f)"
              % (w, clean["attempted"], bad["failed"], bad["attempted"], ok_frac))
    print("selftest passed")


if __name__ == "__main__":
    main()
