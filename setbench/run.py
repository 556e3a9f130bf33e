#!/usr/bin/env python3
"""Build and run the Set-B benchmark from the root of a source checkout.

    python3 setbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds setbench/ (the cross library plus the setb_bench
driver, Release) into .bench_build/setbench, or the directory named by
CARGO_TARGET_DIR, then runs the driver with the same arguments. The
driver's last line of standard output is the result JSON; build output
goes to standard error. Exits non-zero, printing no result, when the
checkout lacks the library sources or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"setbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the library sources (CMakeLists.txt, src/) are not beside setbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "setbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "setb_bench"],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "setb_bench")


def main():
    binary = build()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"setb_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
