#!/usr/bin/env python3
"""Builds and runs the DIALITE serving benchmark (see README.md).

    python3 servebench/run.py --workload discover --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds servebench/ with
CMake into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench),
then runs the driver, whose last stdout line is the JSON result. Build
output and the driver's progress go to stderr. A run that cannot build or
does not finish in time exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170  # the driver's own time; the build is extra


def build(build_dir):
    """Configures (once) and builds the driver and dialited; False on
    failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "servebench", "dialited"],
        stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["discover", "integrate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target_dir, "servebench"))
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1

    # Runs leave their temporary directory here; a killed run may not
    # have removed its own, so clear stale ones first.
    work_dir = os.path.join(build_dir, "runs")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    trace_out = os.path.join(
        build_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "dialited", "dialited"),
           "--work-dir", work_dir, "--trace-out", trace_out]
    # A session of its own, so a timeout can stop the driver and the
    # server it spawned together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("servebench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        # Let any process of the group that got the signal finish dying.
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        shutil.rmtree(work_dir, ignore_errors=True)
    text = out.decode()
    lines = text.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("servebench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
