#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/perfbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

It configures and builds the benchmark with CMake into the directory named
by $CARGO_TARGET_DIR (default .bench_build), runs ips_perfbench with the
same arguments and passes its output through. ips_perfbench reports every
metric it measures; the last line printed here is its result restricted to
the metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1). `--unit-tests` builds and runs the tests of the benchmark's own
helpers instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170
WORKLOADS = ("hot_read", "cold_read", "ingest_mixed")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_revision():
    """The git revision when the checkout is a repository, else a digest of
    the program sources, so every result says what produced it."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the IPS sources (src/) are not in this checkout")
        return 2
    names = listed_metrics(args.trace)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = "perfbench_helpers_test" if args.unit_tests else "ips_perfbench"
    if not build(build_dir, target):
        log("build failed")
        return 2
    if args.unit_tests:
        return subprocess.run([os.path.join(build_dir, target)]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    command = [os.path.join(build_dir, "ips_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-rev", source_revision()]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    sys.stdout.write(output)
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("benchmark exited %d without a result line" % proc.returncode)
        return proc.returncode or 4
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        log("metrics missing from the result: " + ", ".join(missing))
        return 5
    result["metrics"] = {name: result["metrics"][name] for name in names}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
