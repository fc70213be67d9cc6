#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator library and the benchmark program from source (CMake,
Release, into .bench_build/ at the repository root), runs one workload in a
fresh process, checks the result against BENCHMARK.json, and prints it as
the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; see perfbench/README.md. Exits non-zero, without a result
line, when the sources are missing, the build fails, or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "serve_bursty", "scale_1024", "fleet_faults")
# Each run must end within 180 s; leave room to report.
RUN_DEADLINE_S = 170.0


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; returns the binary."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", out_dir,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", out_dir, "-j", jobs])
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def source_revision():
    """git rev when the checkout is a repository, else a source digest."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a non-negative integer"
    got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(expected_metrics(trace)):
        return "metric names or units differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return "metric %s is not a finite number" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail(2, "--seed must be >= 0 and --seconds in [1, 60]")
    if not os.path.exists(os.path.join(ROOT, "src", "core", "moentwine.hh")):
        fail(2, "simulator sources (src/) not found next to perfbench/")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded %.0f s" % RUN_DEADLINE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(4, "run exited with code %d" % proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(4, "run printed no result line")
    problem = validate(result, args.trace)
    if problem:
        fail(4, problem)
    for line in lines[:-1]:
        print(line)
    print("env.revision " + source_revision())
    print("run.process_s %.3f" % (time.monotonic() - started))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
