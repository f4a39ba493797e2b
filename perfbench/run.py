#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload gen-log|serve --seed N \\
        --seconds S --trace 0|1 [--size mini|tiny]
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds perfbench/bench.exe with dune (the
build log goes to stderr), then runs it with the same arguments.  The
benchmark's last stdout line is the JSON result; the exit code is the
benchmark's, or 2 when the build fails.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root", file=sys.stderr)
        return False
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    result = subprocess.run(
        cmd + ["build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    return result.returncode == 0 and os.path.isfile(EXE)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
