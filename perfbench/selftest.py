#!/usr/bin/env python3
"""Self-test of the saffire benchmark.

    python3 perfbench/selftest.py [--workloads table1,network-appfi]
                                  [--reference]

For each workload, runs perfbench/run.py twice with --trace 0 and twice with
--trace 1 (different seeds, the shortest run the benchmark allows) and
asserts that every exact count repeats: the end-to-end `experiments` and
`delivered_ratio`, and the per-layer counts in run.EXACT_COUNTS. Each run
also re-checks the workload's record digest.

--reference additionally reruns the table1 sweep once on the reference
engine (about 40 s on 4 CPUs) and checks that its records hash to the same
digest as the predicted engine's: the stored digest is engine-invariant.
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402  (perfbench/run.py)


def bench_run(workload, seed, trace):
    command = [sys.executable, os.path.join(bench.HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    result = subprocess.run(command, cwd=bench.ROOT, capture_output=True,
                            text=True, check=False)
    if result.returncode != 0:
        raise bench.BenchError("%s (trace %d) failed:\n%s"
                               % (workload, trace, result.stderr[-4000:]))
    line = result.stdout.strip().splitlines()[-1]
    return {name: metric["value"]
            for name, metric in json.loads(line)["metrics"].items()}


def check_repeats(workload):
    checks = (
        (0, ("experiments", "delivered_ratio")),
        (1, bench.EXACT_COUNTS),
    )
    for trace, names in checks:
        first = bench_run(workload, 1, trace)
        second = bench_run(workload, 2, trace)
        for name in names:
            if first[name] != second[name]:
                raise bench.BenchError(
                    "%s: %s differs between runs: %r vs %r"
                    % (workload, name, first[name], second[name]))
            bench.log("ok  %-14s %-30s %r" % (workload, name, first[name]))


def check_reference():
    bench.build()
    digests = bench.expected_digests()
    space = bench.Workspace(seed=0)
    try:
        work_dir = space.fresh()
        bench.spawn("table1", work_dir, traced=False, engine="reference")
        digest = bench.csv_digest(work_dir)
    finally:
        space.close()
    if digest != digests["table1"]:
        raise bench.BenchError("reference-engine table1 digest %s differs "
                               "from the stored %s" % (digest,
                                                       digests["table1"]))
    bench.log("ok  table1 digest matches the reference engine")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    try:
        for workload in args.workloads.split(","):
            check_repeats(workload)
        if args.reference:
            check_reference()
    except bench.BenchError as error:
        bench.log("FAIL %s" % error)
        return 1
    bench.log("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
