#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Builds perfbench/ (which compiles the repository's libraries from
src/) into .bench_build/perfbench on first use, prints host metadata,
then runs the workload. The workload's last stdout line is the result
JSON: end-to-end metrics with --trace 0, per-layer metrics and the
tracing overhead with --trace 1 (which also writes its spans under
.bench_build/perfbench-traces/). The exit code is the workload's: 0 when
every output check passed, non-zero otherwise or when the build fails.
Build output goes to stderr so stdout stays parseable.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "mar_perfbench")
WORKLOADS = ("ar_live", "relay_lossy", "sim_paper", "sim_fleet")
BUILD_TYPE = "RelWithDebInfo"
# A workload runs for --seconds plus a few seconds of set-up.
RUN_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: repository sources (src/) not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mar_perfbench",
                  "-j", str(min(4, nproc()))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return "none"
    return lines[1][:12]


def source_digest():
    """sha256 over src/ file paths and contents: names the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 3
    print(f"perfbench: nproc {nproc()}, git {git_sha()}, src {source_digest()}, "
          f"build {BUILD_TYPE}", flush=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace_dir", TRACE_DIR]
    child = subprocess.Popen(cmd)
    # Stop the workload, and wait for it, if this script is told to stop.
    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
