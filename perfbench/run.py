#!/usr/bin/env python3
"""Build the benchmark from source and run it on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay-full-table --seed 7011 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark itself is perfbench/benchmark.exe (OCaml, built with
dune into _build/); this wrapper builds it incrementally, passes the
commit it was built from, and relays its output. The last line of
standard output is the benchmark's JSON result; the exit status is the
benchmark's (non-zero on a failed build or a failed correctness check).
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "benchmark.exe")


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=7011)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="every workload at tiny scale, untraced and traced")
    args = p.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (no dune-project here)")
    # --cache=disabled: the shared dune cache lives outside the checkout
    build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                            "./perfbench/benchmark.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    if args.selftest:
        cmd = [EXE, "--scale", "tiny"]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        if args.trace:
            cmd.append("--trace")
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
