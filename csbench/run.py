#!/usr/bin/env python3
"""csdac benchmark entry point.

Builds the csdac libraries, the csdac_serve tool and the csbench program
from this checkout into .bench_build/ (CMake, RelWithDebInfo like the
repository's default build), then runs one workload:

    python3 csbench/run.py --workload design_flow --seed 1 --seconds 12 --trace 0

Workloads: design_flow, serve_hot, serve_mixed (see csbench/README.md).
The last line of standard output is the run's JSON verdict; build output
goes to .bench_build/build.log, traces and per-run results to .bench_out/.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the two binaries up to date."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "csbench", "csdac_serve"])
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(os.path.join(BUILD, "build.log")) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit("csbench: build failed (%s)" % " ".join(cmd))


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # plain source tree, not a git checkout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["design_flow", "serve_hot", "serve_mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "csbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(BUILD, "csdac_tools", "csdac_serve"),
           "--out-dir", OUT,
           "--ref", os.path.join(HERE, "design_ref.json"),
           "--git-sha", git_sha()]
    sys.stdout.flush()
    # Own process group, so a timeout also takes down the server child.
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit("csbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
