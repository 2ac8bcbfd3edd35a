#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <sample-suite|push-shm|push-durable> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with CMake (Release) into $CARGO_TARGET_DIR (default
.bench_build) under the checkout root; build output goes to stderr so the
last stdout line stays the benchmark's JSON result.  Scratch files (shm
rendezvous, journals, the trace file) go to .bench_out under the root.
Exits nonzero without a result when the sources are missing or the build
fails, and with the binary's own status otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [os.path.join(out, "perfbench")] + sys.argv[1:]
    args += ["--workdir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
