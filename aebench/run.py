#!/usr/bin/env python3
"""Runs the repository benchmark.

Run from the root of a checkout:

    python3 aebench/run.py --workload tpcc-rnd --seed 1 --seconds 10 --trace 0

Builds the benchmark and the AEDB libraries from source into .bench_build/
(CMake, RelWithDebInfo), runs the benchmark's arithmetic self-test, then runs
one workload. The last line of stdout is the result object
({"correct", "attempted", "failed", "metrics"}); the line before it is the
detail object with the host block. Both are also written to
.bench_out/result-<workload>-seed<n>-trace<t>.json. Exits non-zero, without
a result line, when the build, the self-test or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
BUILD_DIR = os.path.join(".bench_build", "aebench")
OUT_DIR = ".bench_out"
BUILD_TYPE = "RelWithDebInfo"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("aebench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=840)


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout is not
    always a git repository, so this names the code that ran)."""
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    return None


def host_block():
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": cpu_model,
            "build_type": BUILD_TYPE, "git_sha": git_sha(),
            "source_sha256": source_digest()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        subprocess.run([os.path.join(BUILD_DIR, "aebench_selftest")],
                       stdout=sys.stderr, check=True, timeout=60)
    except (subprocess.SubprocessError, OSError) as e:
        log("build or self-test failed: %s" % e)
        return 1

    cmd = [os.path.join(BUILD_DIR, "aebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    if proc.returncode != 0:
        log("run failed with exit code %d" % proc.returncode)
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    try:
        detail = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        log("unparseable output: %s" % e)
        return 1
    if set(result) != RESULT_KEYS:
        log("result has keys %s" % sorted(result))
        return 1
    detail["host"] = host_block()
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
