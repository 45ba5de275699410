#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see e2ebench/NOTES.md).

    python3 e2ebench/run.py --workload <rpc_churn|bulk_contention|baseline_fig1>
                            --seed <n> --seconds <s> --trace <0|1>

The harness and the src/ libraries it links are compiled from source (CMake,
Release) into .bench_build/e2ebench under the repository root on first use;
later runs rebuild incrementally. Build output goes to stderr. The
benchmark's own report goes to stdout and ends with one JSON line. The exit
status is non-zero when the build fails or any outcome check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    """Returns the benchmark binary's path, or None if it cannot be built."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
