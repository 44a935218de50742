#!/usr/bin/env python3
"""Builds bench_ledger from this checkout's sources, runs one workload and
prints the result as one JSON object on the last line of stdout.

    python3 bench_ledger/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/bench_ledger (default
.bench_build/bench_ledger under the checkout root); work files go to
.bench_work and are removed when the run ends. With --trace 0 the JSON
metrics are the end_to_end metrics of BENCHMARK.json, each the median over
several processes (CHILDREN); with --trace 1 they are its per_layer metrics
from one traced process. "correct" is false when any of the benchmark's output
checks failed. The script exits nonzero, printing no result, when the
sources are missing, the build fails, or a metric is missing.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bench_ledger exits 3 when it ran to the end but an output check failed.
CHECK_FAILED = 3
# An untraced run is split over several bench_ledger processes, each
# setting up once and measuring its share of the time; every metric is the
# median over them. On a small shared machine the differences between
# processes (memory layout, thread placement) outweigh those within one,
# and a median over several processes damps them. paper-batch gets fewer
# because its unit of work, one pass over the five engines, takes ~10 s.
CHILDREN = {"paper-batch": 3, "routed-serving": 5, "live-ingest": 5}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "bench_ledger")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "bench_ledger"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_ledger",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_ledger")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    workdir = os.path.join(ROOT, ".bench_work")
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--workdir={workdir}"]
    if args.trace:
        children = 1
        command += ["--trace", "--trace-out=" + os.path.join(
            workdir, f"trace-{args.workload}-{args.seed}.json")]
    else:
        children = CHILDREN[args.workload]
    command.append(f"--seconds={args.seconds / children:.3f}")

    measured = {}
    counts = {"attempted": 0, "failed": 0}
    correct = True
    deadline = time.monotonic() + 170
    for child in range(children):
        try:
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("bench_ledger ran past 170 s")
        for line in done.stdout.splitlines():
            print(f"# [{child}] {line}")
            fields = line.split()
            if line.startswith("# ") and len(fields) == 3 and fields[1] in counts:
                counts[fields[1]] += int(fields[2])
            elif len(fields) == 3 and not line.startswith("#"):
                measured.setdefault(fields[0], ([], fields[2]))[0].append(
                    float(fields[1]))
        if done.returncode not in (0, CHECK_FAILED):
            fail(f"bench_ledger exited {done.returncode}")
        correct = correct and done.returncode == 0

    # Every metric is the median over the processes that printed it.
    for name, (values, unit) in measured.items():
        print(f"{name} {statistics.median(values):.9g} {unit}")
    metrics = {}
    for metric in wanted:
        if len(measured.get(metric["name"], ([],))[0]) != children:
            fail(f"bench_ledger did not print {metric['name']} every time")
        values, unit = measured[metric["name"]]
        if unit != metric["unit"]:
            fail(f"{metric['name']} is in {unit}, not {metric['unit']}")
        metrics[metric["name"]] = {"value": statistics.median(values),
                                   "unit": unit}
    if counts["attempted"] < 1:
        fail("bench_ledger attempted no operations")
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))

if __name__ == "__main__":
    main()
