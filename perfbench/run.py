#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pll_grid --seed 1 --seconds 20 --trace 0

The Rust driver (perfbench/src) and the repository's `ppsweep` CLI are
built with cargo into $CARGO_TARGET_DIR (default `.bench_build`). The
driver's output is passed through; its closing JSON object is extended with
`peak_rss_mb`, the largest resident set of the driver or any process it
spawned, taken from wait4().
Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pll_grid", "ulottery_grid")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    command = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--ppsweep", os.path.join(target, "release", "ppsweep"),
        "--work", work,
    ]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stdout.write(output)
        fail(f"driver exited with {proc.returncode}")

    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no result")
    for line in lines[:-1]:
        print(line)
    # ru_maxrss is in KiB on Linux; it covers the driver and every
    # descendant it (transitively) waited for.
    peak_rss_mb = usage.ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':<34} {peak_rss_mb:>16.6f} MB")
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
