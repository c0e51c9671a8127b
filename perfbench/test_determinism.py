#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_determinism.py

For every workload:
  * the generated request stream is byte-identical across two processes
    with the same seed (and differs for another seed);
  * two traced runs with the same seed, each the full run the benchmark
    makes, report identical count metrics;
  * the layers' self times account for the replay op time to within
    10% (trace.unattributed_pct <= 10).
Exits 1 on any failure.
"""

import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["edit-large", "many-docs", "open-project"]
LOADGEN = os.path.join("_build", "default", "perfbench", "loadgen.exe")


def stream_digest(workload, seed):
    """The set-up and first 300 stream ops' request lines, hashed."""
    cmd = [LOADGEN, "--workload", workload, "--seed", str(seed), "--dump", "300"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout
    return hashlib.sha256(out).hexdigest()


def is_count(name):
    # trace.* are times; machine.* describe the machine, not the program.
    if name.startswith(("trace.", "machine.")):
        return False
    return (name.endswith(("_per_op", "_per_kop", "_pct"))
            or name in ("query.cells_live", "iglr.gss_peak_parsers"))


def traced(workload, seed):
    """One traced run, as the benchmark makes it (run.py also builds
    the load generator that stream_digest runs)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout
    result = json.loads(out.decode().strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    failures = []
    for w in WORKLOADS:
        first, second = traced(w, 7), traced(w, 7)
        a, b, other = stream_digest(w, 7), stream_digest(w, 7), stream_digest(w, 8)
        if a != b:
            failures.append("%s: request stream differs between runs" % w)
        if a == other:
            failures.append("%s: request stream ignores the seed" % w)
        counts = [k for k in first if is_count(k)]
        for k in counts:
            if first[k] != second[k]:
                failures.append("%s: %s = %r then %r" % (w, k, first[k], second[k]))
        for r in (first, second):
            if r["trace.unattributed_pct"] > 10:
                failures.append("%s: unattributed %.2f%% of op time"
                                % (w, r["trace.unattributed_pct"]))
        print("%s: stream %s..., %d count metrics compared, unattributed %.2f%%"
              % (w, a[:12], len(counts), first["trace.unattributed_pct"]))
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
