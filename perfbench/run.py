#!/usr/bin/env python3
"""Build the fecsynth benchmark from source and run one workload.

    python3 perfbench/run.py --workload knee|walk|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The harness
(perfbench/fecbench.ml) and the fecsynth binary are built with dune;
every file a run makes lives under .bench_build/ in the checkout and is
removed when the run ends.  The last line of standard output is the
harness's JSON result; the exit code is the harness's.
"""

import argparse
import os
import signal
import subprocess
import sys

HARNESS = "perfbench/fecbench.exe"
FECSYNTH = "bin/fecsynth.exe"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["knee", "walk", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "bin/dune", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"run.py: {need} not found; run from the root of a checkout")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + HARNESS, "./" + FECSYNTH],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"run.py: dune build failed with code {build.returncode}")

    exe = os.path.join(root, "_build", "default")
    work = os.path.join(root, ".bench_build", "perfbench")
    # its own process group, so that a run past its time limit is stopped
    # together with the serve daemon it started
    harness = subprocess.Popen(
        [
            os.path.join(exe, HARNESS),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--fecsynth", os.path.join(exe, FECSYNTH),
            "--work", work,
        ],
        start_new_session=True,
    )
    try:
        code = harness.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        sys.exit("run.py: the harness ran past 170 s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
