#!/usr/bin/env python3
"""Keystroke benchmark for the iglrd parse service.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload edit-large --seed 1 --seconds 20 --trace 0

Builds the daemon and the load generator with dune, then runs the load
generator, whose last line of output is the result object.  See
perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/iglrd.exe", "./perfbench/loadgen.exe"]
SOURCES = ["dune-project", "bin/iglrd.ml", "lib", "perfbench/dune"]


def run(cmd, timeout, **kw):
    """Run cmd in its own process group and return its exit code.  On a
    timeout (None is returned) or when this script is interrupted, the
    whole group, the load generator's daemon included, is killed."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop():
        # SIGTERM first: the load generator then kills and reaps its
        # daemon itself.
        os.killpg(p.pid, signal.SIGTERM)
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()

    def interrupted(signum, _):
        stop()
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT):
        signal.signal(s, interrupted)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.exit("perfbench: run from a source checkout (missing %s)" % ", ".join(missing))

    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = run(["dune", "build", "--root", ".", *TARGETS], BUILD_TIMEOUT_S,
                    stdout=sys.stderr, env=env)
    except OSError as e:
        sys.exit("perfbench: cannot run dune: %s" % e)
    if built != 0:
        sys.exit("perfbench: build failed")

    cmd = [os.path.join("_build", "default", "perfbench", "loadgen.exe"),
           "--iglrd", os.path.join("_build", "default", "bin", "iglrd.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    code = run(cmd, RUN_TIMEOUT_S)
    if code is None:
        sys.exit("perfbench: load generator timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
