#!/usr/bin/env python3
"""Build and run the revft performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a revft checkout. The first call configures and
builds librevft and the perfbench binary (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to stderr. The binary's
standard output passes through unchanged: its last line is the result
JSON. Traced runs (--trace 1) write their Chrome trace and per-layer
metrics file into the build directory's out/ folder.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("toffoli_l2_plain", "machine1d_blocklocal", "machine2d_checked_w8")


def run(cmd, **kwargs):
    """Run cmd to completion and return its exit code. On SIGTERM or
    SIGINT, stop it and wait for it before exiting."""
    proc = subprocess.Popen(cmd, **kwargs)
    stopped = []

    def stop(signum, _frame):
        stopped.append(signum)
        proc.terminate()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    rc = proc.wait()
    if stopped:
        sys.exit(128 + stopped[0])
    return rc


def build(build_dir):
    """Configure once, then build incrementally. Returns the exit code."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        rc = run(configure, stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: the revft sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    rc = build(build_dir)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc
    return run([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference.json"),
        "--out", os.path.join(build_dir, "out"),
    ])


if __name__ == "__main__":
    sys.exit(main())
