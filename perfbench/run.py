#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-night --seed 1 --seconds 10 --trace 0

The build goes through dune into the checkout's own _build directory; its
output and the benchmark's human summary go to stderr. The last line of
stdout is the JSON result. Before printing it, the runner checks that its
metrics are exactly the BENCHMARK.json ones for the mode (end_to_end for
--trace 0, per_layer for --trace 1), with the same units.
"""

import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench/run.py: %s\n" % msg)
    sys.exit(1)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail("metric %s has unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), want[name]))
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s has value %r" % (name, v))


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    for line in lines[:-1]:
        sys.stderr.write(line + "\n")
    check(json.loads(lines[-1]), trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
