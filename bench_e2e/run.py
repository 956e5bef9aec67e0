#!/usr/bin/env python3
"""Builds and runs the DataCell end-to-end benchmark (bench_e2e).

Run from the repository root:

    python3 bench_e2e/run.py --workload feed_csv --seed 1 --seconds 10 --trace 0

Workloads: feed_csv, shard_keyed, linear_road. Any further options are passed
to the benchmark binary unchanged (e.g. --sink-spin-ns 2000 for the
sensitivity self-check).

The first run configures and builds the engine library and the benchmark in
.bench_build/cmake (Release); later runs only re-check the build. Result
files (metrics plus host identity, seed and generator lag) and the traced
run's spans go to .bench_build/results. The last line of standard output is
the result JSON; the exit code is non-zero when the build fails or a result
check fails.
"""

import ctypes
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def same_layout_every_run():
    """Turns off address-space randomization for the benchmark process.

    With it on, linear_road's throughput moved about 10% between runs of one
    seed with the code layout alone; off, every run gets the same layout.
    Where the personality call is not allowed the run goes ahead randomized.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "cmake")
    results_dir = os.path.join(root, ".bench_build", "results")
    binary = os.path.join(build_dir, "bench_e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "bench_e2e"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("bench_e2e: build failed", file=sys.stderr)
            return 1

    os.makedirs(results_dir, exist_ok=True)
    cmd = [binary, "--out", results_dir] + sys.argv[1:]
    # The benchmark runs its engine instances in child processes; its own
    # session lets a timeout stop all of them.
    proc = subprocess.Popen(cmd, start_new_session=True,
                            preexec_fn=same_layout_every_run)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
