#!/usr/bin/env python3
"""Builds the daemons and the perfbench binary, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload interactive|overload|fleet|all \
        --seed N --seconds S --trace 0|1

`all` runs every workload in turn.

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). The binary's
last line of standard output is the JSON result; see perfbench/README.md.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["interactive", "overload", "fleet"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo workspace at " + ROOT, file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "calib-serve", "--bin", "calib-serve",
         "-p", "calib-router", "--bin", "calib-router"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo reports on stderr; stdout stays for the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    bin_dir = os.path.join(target, "release")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        run = subprocess.run(
            [os.path.join(bin_dir, "perfbench"),
             "--workload", workload,
             "--seed", str(args.seed),
             "--seconds", str(args.seconds),
             "--trace", args.trace,
             "--bin-dir", bin_dir,
             "--work-dir", os.path.join(target, "perfbench-work")],
            cwd=ROOT,
        )
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
