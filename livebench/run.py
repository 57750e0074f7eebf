#!/usr/bin/env python3
"""Builds the live-path benchmark from source and runs one workload.

Run from the repository root:

    python3 livebench/run.py --workload steady --seed 1 --seconds 15 --trace 0

The build lands in .bench_build/livebench (incremental after the first
run). Every argument is passed to the zlb_livebench binary, whose last
stdout line is the JSON result; build output goes to stderr. Exits
non-zero, without a result, when the build or the run fails.
"""
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build", "livebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "livebench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "zlb_livebench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            print("livebench: build failed", file=sys.stderr)
            return 1

    workdir = os.path.join(build, f"work-{os.getpid()}")
    cmd = [os.path.join(build, "zlb_livebench"), *sys.argv[1:],
           "--workdir", workdir]
    # Own process group: on a timeout the benchmark and its trial
    # processes are killed together, and waited for.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("livebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
