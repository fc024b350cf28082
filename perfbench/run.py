#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 7 --seconds 20 --trace 0

The Go build cache, temporary files and the binary live in .bench_build/
inside the checkout, so the benchmark reads and writes nothing outside it.
Building is not part of any metric: the binary measures its own set-up.
The process exits with the binary's status; a failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    for d in ("gocache", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        sys.exit(built.returncode)
    os.chdir(ROOT)
    # Replace this process, so whoever started run.py waits on the benchmark itself.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
