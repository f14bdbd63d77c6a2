#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is built with dune into .bench_build/ (dune's shared cache
disabled, so nothing is read or written outside the checkout). Build
output goes to standard error; the benchmark's own report, ending with
one JSON summary line, goes to standard output. The benchmark runs in a
process group of its own, which is emptied before this script exits.
"""

import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
LIMIT_S = 175.0


def kill_group(pgid):
    """SIGKILL every process left in the group and wait until none is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    started = time.monotonic()
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: not at the root of a yewpar checkout "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./%s/perfbench.exe" % here],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", here, "perfbench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env,
                            start_new_session=True)
    remaining = max(60.0, LIMIT_S - (time.monotonic() - started))
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %.0fs" % remaining, file=sys.stderr)
        code = 124
    finally:
        kill_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
