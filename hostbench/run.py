#!/usr/bin/env python3
"""Build and run the tmpi host-time benchmark.

    python3 hostbench/run.py --workload stream|pingpong|contended \
        --seed N --seconds S --trace 0|1

Configures and builds hostbench/ (which compiles the runtime from the
repository's src/ tree) into .bench_build/hostbench at the repository root,
then runs the benchmark binary. Build output goes to stderr; the binary's
last stdout line is the JSON result. TMPI_* environment variables are
dropped so every run measures the default configuration.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; returns True on success."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("hostbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stream", "pingpong", "contended"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("TMPI_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hostbench: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
