#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload batch|stream|serve --seed N \
        --seconds S --trace 0|1 [--smoke]

The driver and the library are compiled (Release) into
.bench_build/perfbench at the repository root; later runs only rebuild
what changed.  The driver's standard output is passed through: '#' lines
for people, and as the last line one JSON object with "correct",
"attempted", "failed" and "metrics".
With --trace 1 the spans are written next to the build as
trace-<workload>-seed<N>.json.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def build_dir():
    return ROOT / ".bench_build" / "perfbench"


def build(out):
    """Configure once, then build incrementally.  Build logs go to stderr."""
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_driver", "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch", "stream", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the output, not the speed")
    args = parser.parse_args()

    out = build_dir()
    try:
        driver = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(out / f"trace-{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        valid = False
    if run.returncode != 0 or not valid:
        sys.stderr.write(run.stdout)
        print(f"perfbench: driver exited {run.returncode} without a result",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
