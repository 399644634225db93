#!/usr/bin/env python3
"""The command of BENCHMARK.json: one run of one workload.

    python3 crates/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `ovnes-e2e` from the sources in this checkout (see overlay.py for how),
runs the workload in a child process and passes on its output; the last line
is the JSON object the benchmark contract asks for. With `--trace 0` the child
runs the workload's frozen number of fixed-size repetitions (S only caps them)
and reports the median over the repetitions; with `--trace 1` it runs one
plain repetition and one with the span recorder and the layer probes.
Everything written lands under the cargo target directory of the checkout.
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import overlay  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = overlay.build()
    out_dir = os.path.join(overlay.target_dir(), "e2e")
    command = [binary, "one", "--workload", args.workload, "--seed", str(args.seed), "--out-dir", out_dir]
    command += ["--trace"] if args.trace else ["--seconds", str(args.seconds)]
    # The child's exit code says whether the outputs were correct; a run that
    # printed its result has done its job either way, so only a child that
    # died without one (a panic, a bad argument) fails the run.
    done = subprocess.run(command, cwd=overlay.ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.exit(f"run.py: {' '.join(command)} exited with {done.returncode} and no result")


if __name__ == "__main__":
    main()
