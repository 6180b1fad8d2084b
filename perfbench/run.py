#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload <loops|footprint|checked> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is a Cargo package of its own
(perfbench/Cargo.toml) with path dependencies on the repository's crates;
it builds into $CARGO_TARGET_DIR, or .bench_build when that is unset.
The last line of standard output is the harness's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("loops", "footprint", "checked")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 120


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # glibc otherwise hands freed heap back to the kernel and faults it in
    # again: ~100k page faults per run, whose cost on a virtual machine
    # swamps allocation-heavy rounds such as protect() with noise.
    env.update(MALLOC_TRIM_THRESHOLD_=str(1 << 30), MALLOC_TOP_PAD_=str(64 << 20),
               MALLOC_MMAP_THRESHOLD_=str(32 << 20))
    binary = os.path.join(target, "release", "flexprot-perfbench")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + RUN_GRACE_S, check=False,
    )
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: harness exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
