#!/usr/bin/env python3
"""Build and run the end-to-end benchmark ledger.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune against the library sources of the
checkout, runs it, and passes its standard output through: the last line is
one JSON object with the keys correct, attempted, failed and metrics.
Workloads: profiles-max, catalog-page, watch-churn, approx-static (see
perfbench/README.md). Exits non-zero, printing no result, when the checkout
does not hold the library sources or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["profiles-max", "catalog-page", "watch-churn", "approx-static"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt every 10th op's answers (self-test)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    for needed in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(needed):
            fail("run from the root of a checkout: %s is missing" % needed)

    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
