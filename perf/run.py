#!/usr/bin/env python3
"""Build and run the repository benchmark (see perf/README.md).

Usage, from the repository root:

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perf/CMakeLists.txt (the simulator
library from src/ plus the driver) under $CARGO_TARGET_DIR, default
.bench_build; later runs only check that the build is up to date. The
driver's output is passed through: its last line is the JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("fig9-grid", "service-scaleout", "service-audit-open")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def cache_home(build_dir):
    """Source directory a configured build tree belongs to, or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(src_dir, build_dir):
    home = cache_home(build_dir)
    if home is not None and os.path.realpath(home) != os.path.realpath(src_dir):
        shutil.rmtree(build_dir)  # Configured for another checkout.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "retcon_perf", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    src_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(src_dir)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perf")
    tmp_dir = os.path.join(build_root, "perf-tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    if not build(src_dir, build_dir):
        log("benchmark build failed")
        return 1
    binary = os.path.join(build_dir, "retcon_perf")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", tmp_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
