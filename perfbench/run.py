#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_zipf --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (and the LLMulator libraries it links)
as a Release CMake package under the build directory, then runs the
benchmark binary with the given arguments. The binary prints a run
header, one line per metric, and as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the repository root. Run artifacts (the fleet's persistent
cache snapshot, chrome traces) go to <build dir>/perfbench-run.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    run_dir = os.path.join(build_root, "perfbench-run")
    jobs = str(os.cpu_count() or 1)

    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    os.makedirs(run_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    cmd = [binary, "--out-dir", run_dir] + sys.argv[1:]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
