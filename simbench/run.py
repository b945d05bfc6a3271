#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the root of a checkout:

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call configures and builds simbench/ (which compiles the
repository's src/ tree) into .bench_build/ at the checkout root, with the
repository's default RelWithDebInfo build type. Only the first call
builds from scratch. The arguments go unchanged to the simbench binary,
whose last line of output is the result as one JSON object (see
simbench/README.md). Exits non-zero, without a result, when the build or
the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "simbench")
RUN_TIMEOUT_S = 175


def clean_env():
    """The environment without the simulator's PPSSD_* and REPRO_FULL knobs."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PPSSD_") and k != "REPRO_FULL"}


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: no simulator sources at %s; run from a full "
                 "checkout" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The repository's default build type (top-level CMakeLists.txt), so
    # the benchmark times the code the figure binaries run.
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "simbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("simbench: build step failed: %s" % " ".join(cmd))


def main(argv):
    env = clean_env()
    build(env)
    try:
        done = subprocess.run([BINARY] + argv, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        sys.exit("simbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit("simbench: exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if "--list" in argv:
        return
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("simbench: output did not end with a JSON result")


if __name__ == "__main__":
    main(sys.argv[1:])
