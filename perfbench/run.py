#!/usr/bin/env python3
"""Runs the repository benchmark.

Builds qmqo_perfbench from the checkout's sources (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), runs one workload for a time
budget, checks that every metric BENCHMARK.json declares was measured with
its declared unit, stamps the host, and prints one JSON object as the last
line of standard output:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from a separate traced run. The full record (host stamp,
answer digests, per-class facts) is written to
<build dir>/results/<workload>-seed<seed>-trace<trace>.json.

  python3 perfbench/run.py --workload mqo_paper --seed 1 --seconds 30 --trace 0
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Longest the measuring binary may take once built; the benchmark must end
# within 180 s per run.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures once and builds the binary; output goes to stderr."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target",
                      "qmqo_perfbench", "-j", BUILD_JOBS])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
                return None
    return os.path.join(out_dir, "qmqo_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path and content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as error:
        return fail(f"cannot read BENCHMARK.json: {error}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; one of {workloads}")
    if not 0 < args.seconds <= 600:
        return fail("--seconds must be in (0, 600]")
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "solve_service.h")):
        return fail(f"no qmqo sources under {ROOT}/src; run from a checkout")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return fail("build failed")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"qmqo_perfbench did not finish in {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail(f"qmqo_perfbench printed no result (exit {run.returncode})")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = record["metrics"]
    metrics = {}
    for metric in declared:
        value = measured.get(metric["name"])
        if value is None or value["unit"] != metric["unit"]:
            return fail(f"metric {metric['name']} not measured in "
                        f"{metric['unit']}: {value}")
        metrics[metric["name"]] = value
    extra = sorted(set(measured) - set(metrics))
    if extra:
        return fail(f"measured metrics missing from BENCHMARK.json: {extra}")

    record["host"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": record["facts"].get("compiler"),
        "build_type": record["facts"].get("build_type"),
        "commit": commit(),
        "source_sha256": source_digest(),
    }
    record["run"] = vars(args)
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as artifact:
        json.dump(record, artifact, indent=1, sort_keys=True)

    print("host: " + json.dumps(record["host"], sort_keys=True))
    for key, value in record["facts"].items():
        print(f"{key}: {value}")
    for failure in record["failures"]:
        print(f"check failed: {failure}")
    for metric_name, value in metrics.items():
        print(f"{metric_name} = {value['value']:.6g} {value['unit']}")
    correct = record["correct"] and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
