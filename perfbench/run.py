#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-olap --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The engine and the benchmark are
built with dune into .bench_build/; the program's last stdout line is
the result JSON.  Records and traces land in .bench_out/.  Exits 2 without
a result when the engine's sources are missing or an NRA_* variable is
set.
"""

import os
import subprocess
import sys

WORKLOADS = ("paper-olap", "served-lookups", "write-spill")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or args.get("--workload") not in WORKLOADS:
        fail("usage: run.py --workload %s --seed N --seconds S --trace 0|1"
             % "|".join(WORKLOADS))
    bad = sorted(k for k in os.environ if k.startswith("NRA_"))
    if bad:
        fail("refusing to run with %s set" % ", ".join(bad))
    for need in ("dune-project", "lib/core/dune", "perfbench/main.ml"):
        if not os.path.isfile(need):
            fail("%s not found: run from the root of a checkout" % need)
    build_dir = ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
