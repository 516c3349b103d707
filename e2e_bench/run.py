#!/usr/bin/env python3
"""Builds the scibench end-to-end benchmark from source and runs it.

Usage, from the root of a scibench checkout:

    python3 e2e_bench/run.py --workload study|gate|service --seed N \
        --seconds S --trace 0|1

The first run configures and builds the library, the shipped scibenchd and
scibench_worker tools and the benchmark program (Release) into
.bench_build/e2e; later runs only rebuild what changed. Build output goes
to stderr, so the result object stays the last line of stdout.
Scratch files live in .bench_build/work and are removed after the run;
the scibench.bench self-report and the Chrome trace of a --trace 1 run
stay in .bench_build/reports.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "e2e_bench")
BUILD = os.path.join(".bench_build", "e2e")
TARGETS = ["scibench_e2e", "scibenchd", "scibench_worker"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no scibench sources next to e2e_bench/; run it from a full checkout")
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", PACKAGE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, cwd=ROOT, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                   cwd=ROOT, stdout=sys.stderr, check=True)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["study", "gate", "service"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    env = dict(os.environ)
    sha = git_sha()
    if sha:
        env["SCIBENCH_GIT_SHA"] = sha
    command = [os.path.join(BUILD, "scibench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--tools", os.path.join(BUILD, "tools"),
               "--work", os.path.join(".bench_build", "work"),
               "--out", os.path.join(".bench_build", "reports")]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
