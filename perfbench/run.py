#!/usr/bin/env python3
"""The saffire benchmark: cold-start fault-injection sweeps, end to end.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds perfbench/ (and the
library sources under src/) into .bench_build/perfbench; later runs reuse it.

Every measured repetition is a fresh harness process in a fresh working
directory, so the golden-run cache, the executor pool, the per-worker
simulators and every on-disk cache start cold, as they do for a CLI user.
Repetitions continue while the next one is expected to end within --seconds
(at least MIN_REPS of them). Every metric is the median over repetitions.
Under --trace 0, each full repetition is followed by set-up-only ones that
exit at the first record, for about SETUP_SHARE of its time, so setup_s is
the median of more samples than the full sweeps give.

--trace 0 reports the end-to-end metrics. --trace 1 alternates the plain
harness with the traced one (saffire_bench_traced, whose calls into each
module's public functions are timed by linker-level wrappers) and reports
the per-layer metrics instead. Each repetition's CSV record stream must hash
to the digest in perfbench/expected_digests.txt, and the workload's cold- or
warm-state preconditions must hold, or the run exits 1 without a result.

The last stdout line is the result JSON: correct, attempted, failed, metrics.
A machine fingerprint line precedes it; stderr carries a readable summary.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")

WORKLOADS = ("table1", "table1-warm", "network-cycle", "network-appfi")
TABLE1_CAMPAIGNS = 14
DEFAULT_DRAM_BYTES = 64 << 20
MIN_REPS = 4            # measured repetitions per run, at the least
MIN_TRACED_REPS = 2     # traced and plain repetitions each, under --trace 1
# A run must end within 180 s: no repetition starts after RUN_BUDGET_S, and
# none may take longer than REP_TIMEOUT_S (a table1 sweep takes 6-10 s).
REP_TIMEOUT_S = 50
RUN_BUDGET_S = 120
# table1's set-up ends with its first campaign's chunk, which 4 workers race
# for, so one sample spreads widely; see NOTES.md, Steadiness.
SETUP_SHARE = 0.25

# Per-layer timings: each stem yields <stem>.calls/.total/.p50/.tail.
LAYER_STEMS = (
    "service.plan_s",
    "service.sink_s",
    "service.result_cache.load_s",
    "service.result_cache.store_s",
    "fi.golden_record_s",
    "patterns.prepare_s",
    "patterns.group_s",
    "accel.construct_s",
    "accel.gemm_s.layer0",
    "accel.gemm_s.layer1",
    "dnn.prepare_s",
    "dnn.golden_inference_s",
    "dnn.inference_s",
    "dnn.host_gemm_s.layer0",
    "dnn.host_gemm_s.layer1",
    "appfi.inject_s",
    "mitigation.plan_s",
    "mitigation.abft_s",
)

# Counts that must repeat exactly across runs of the same code.
EXACT_COUNTS = (
    "fi.pe_steps",
    "systolic.lanes_stepped",
    "service.executor.chunks",
    "service.result_cache.hits",
    "service.result_cache.stores",
    "patterns.predict.hits",
    "patterns.predict.residue",
    "mitigation.abft.detected",
)

END_TO_END_UNITS = {
    "experiments_per_s": "1/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "experiments": "count",
    "delivered_ratio": "ratio",
}


class BenchError(Exception):
    """A failed build, harness run or correctness check."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "run.h")):
        raise BenchError("saffire sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_tool(configure)
    run_tool(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_tool(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, check=False)
    if result.returncode != 0:
        raise BenchError("'%s' failed with exit code %d"
                         % (" ".join(command), result.returncode))


# --- one harness process ---------------------------------------------------

def harness_env():
    env = dict(os.environ)
    # A CLI user at defaults: auto SIMD, no chaos schedule.
    env.pop("SAFFIRE_SIMD", None)
    env.pop("SAFFIRE_CHAOS", None)
    return env


def spawn(workload, work_dir, traced, engine=None, setup_only=False):
    """Runs the harness once; returns (report, spawn time ns, peak RSS KiB)."""
    program = "saffire_bench_traced" if traced else "saffire_bench"
    harness_workload = "table1" if workload == "table1-warm" else workload
    command = [os.path.join(BUILD_DIR, program), "--workload",
               harness_workload, "--dir", work_dir]
    if engine:
        command += ["--engine", engine]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    out_path = os.path.join(work_dir, "harness.out")
    with open(out_path, "wb") as out:
        t_spawn = time.monotonic_ns()
        process = subprocess.Popen(command, stdout=out, cwd=work_dir,
                                   env=harness_env())
        timer = threading.Timer(REP_TIMEOUT_S, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        raise BenchError("%s --workload %s exited with %d"
                         % (program, harness_workload, process.returncode))
    with open(out_path, encoding="utf-8") as lines:
        report = json.loads(lines.read().strip().splitlines()[-1])
    return report, t_spawn, usage.ru_maxrss


def csv_digest(work_dir):
    digest = hashlib.sha256()
    with open(os.path.join(work_dir, "records.csv"), "rb") as records:
        for block in iter(lambda: records.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def expected_digests():
    digests = {}
    with open(os.path.join(HERE, "expected_digests.txt"),
              encoding="utf-8") as lines:
        for line in lines:
            fields = line.split()
            if len(fields) == 2 and not line.startswith("#"):
                digests[fields[0]] = fields[1]
    # The warm replay must reproduce the cold sweep byte for byte.
    digests["table1-warm"] = digests["table1"]
    return digests


def check_preconditions(workload, report):
    """The cold- or warm-state contract of the workload."""
    executor = report.get("executor", {})
    if workload == "table1" and report["cache_hits"] != 0:
        raise BenchError("table1 must start with a cold result cache, saw "
                         "%d hits" % report["cache_hits"])
    if workload == "table1-warm" and (
            report["cache_hits"] != TABLE1_CAMPAIGNS
            or executor.get("experiments_run") != 0):
        raise BenchError("table1-warm must replay all %d campaigns from the "
                         "cache, saw %d hits and %s experiments run"
                         % (TABLE1_CAMPAIGNS, report["cache_hits"],
                            executor.get("experiments_run")))
    if report["dram_bytes"] != DEFAULT_DRAM_BYTES:
        raise BenchError("%s ran on %d DRAM bytes, not the CLI default %d"
                         % (workload, report["dram_bytes"],
                            DEFAULT_DRAM_BYTES))


class Workspace:
    """Fresh working directories for one benchmark run, removed at exit."""

    def __init__(self, seed):
        os.makedirs(RUNS_DIR, exist_ok=True)
        self.root = os.path.join(RUNS_DIR, "seed%d-pid%d" % (seed, os.getpid()))
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.count = 0

    def fresh(self, cache=None):
        """A new working directory, holding a copy of `cache` if given."""
        self.count += 1
        path = os.path.join(self.root, "rep%03d" % self.count)
        os.makedirs(path)
        if cache is not None:
            shutil.copytree(cache, os.path.join(path, "result-cache"))
        return path

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def measure_once(workload, space, digests, traced, cache):
    work_dir = space.fresh(cache)
    report, t_spawn, rss_kib = spawn(workload, work_dir, traced)
    digest = csv_digest(work_dir)
    if digest != digests[workload]:
        raise BenchError("%s record digest %s does not match the expected %s"
                         % (workload, digest, digests[workload]))
    check_preconditions(workload, report)
    if report["t_first_record_ns"] <= 0:
        raise BenchError("%s delivered no record" % workload)
    setup_s = (report["t_first_record_ns"] - t_spawn) / 1e9
    wall_s = (report["t_done_ns"] - t_spawn) / 1e9
    failed = (report["experiments"] - report["records"])
    rep = {
        "report": report,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "experiments_per_s": report["records"] / (wall_s - setup_s),
        "peak_rss_mb": rss_kib / 1024.0,
        "experiments": report["experiments"],
        "delivered_ratio": report["records"] / report["experiments"],
        "failed": failed,
    }
    shutil.rmtree(work_dir, ignore_errors=True)
    return rep


def measure_setup(workload, space, cache):
    """setup_s of one harness process that exits at its first record."""
    work_dir = space.fresh(cache)
    report, t_spawn, _ = spawn(workload, work_dir, traced=False,
                               setup_only=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    return (report["t_first_record_ns"] - t_spawn) / 1e9


def warm_cache(digests):
    """table1-warm's result cache, filled by an unmeasured earlier process.

    The filled cache is kept under .bench_build, keyed by the harness
    binary's hash, so later runs of the same build copy it instead of
    re-running the 14-campaign sweep; every measured repetition still gets
    its own fresh copy.
    """
    program = os.path.join(BUILD_DIR, "saffire_bench")
    with open(program, "rb") as binary:
        key = hashlib.sha256(binary.read()).hexdigest()[:16]
    cache_dir = os.path.join(ROOT, ".bench_build", "warm-cache-" + key)
    if os.path.isdir(cache_dir):
        return cache_dir
    fill_dir = cache_dir + ".fill-%d" % os.getpid()
    shutil.rmtree(fill_dir, ignore_errors=True)
    os.makedirs(fill_dir)
    try:
        report, _, _ = spawn("table1", fill_dir, traced=False)
        if csv_digest(fill_dir) != digests["table1"]:
            raise BenchError("the cache-filling table1 run produced wrong "
                             "records")
        if report["cache_stores"] != TABLE1_CAMPAIGNS:
            raise BenchError("the cache-filling run stored %d of %d campaigns"
                             % (report["cache_stores"], TABLE1_CAMPAIGNS))
        try:
            os.rename(os.path.join(fill_dir, "result-cache"), cache_dir)
        except OSError:
            if not os.path.isdir(cache_dir):  # else a concurrent run won
                raise
    finally:
        shutil.rmtree(fill_dir, ignore_errors=True)
    return cache_dir


# --- per-layer metrics ------------------------------------------------------

def layer_metrics(rep):
    """Per-layer values of one traced repetition."""
    report = rep["report"]
    trace = report["trace"]
    counters = report["counters"]
    executor = report.get("executor", {})
    metrics = {}
    for stem in LAYER_STEMS:
        stats = trace["layers"].get(stem, {})
        metrics[stem + ".calls"] = stats.get("count", 0)
        metrics[stem + ".total"] = stats.get("total_ns", 0) / 1e9
        metrics[stem + ".p50"] = stats.get("p50_ns", 0) / 1e9
        metrics[stem + ".tail"] = stats.get("tail_ns", 0) / 1e9

    workers = report["workers"]
    sweep_s = report["sweep_ns"] / 1e9
    busy_s = counters.get("saffire.executor.worker_busy_us", 0) / 1e6
    metrics["service.executor.busy_fraction"] = (
        busy_s / (sweep_s * workers) if executor else 0.0)
    metrics["service.executor.chunks"] = executor.get("chunks", 0)
    metrics["service.executor.simulators_constructed"] = executor.get(
        "simulators_constructed", 0)
    metrics["service.executor.critical_campaign_s"] = (
        report["critical_campaign_ns"] / 1e9)
    metrics["service.result_cache.hits"] = report["cache_hits"]
    metrics["service.result_cache.stores"] = report["cache_stores"]
    metrics["service.network.demotions"] = counters.get(
        "saffire.dnn.demotions", 0)

    hits = counters.get("saffire.predict.hits", 0)
    residue = counters.get("saffire.predict.residue", 0)
    metrics["patterns.predict.hits"] = hits
    metrics["patterns.predict.residue"] = residue
    metrics["patterns.predict.hit_ratio"] = (
        hits / (hits + residue) if hits + residue else 0.0)

    pe_steps = counters.get("saffire.fi.pe_steps", 0)
    group_s = metrics["patterns.group_s.total"]
    metrics["fi.pe_steps"] = pe_steps
    metrics["fi.pe_steps_per_s"] = pe_steps / group_s if group_s else 0.0
    metrics["systolic.lanes_stepped"] = counters.get(
        "saffire.simd.lanes_stepped", 0)
    batches = executor.get("batches_run", 0)
    metrics["systolic.lane_fill_ratio"] = (
        executor.get("lanes_filled", 0) / (batches * 256) if batches else 0.0)
    metrics["mitigation.abft.detected"] = trace["abft_detected"]

    # Thread time the run spent working: the calling thread outside its
    # executor wait, the executor workers' busy time, and the sink and
    # cache-store callbacks the executor delivered on its workers.
    main_s = (report["t_done_ns"] - report["t_main_ns"]) / 1e9
    worked_s = (main_s - trace["wait_ns"] / 1e9 + busy_s
                + trace["delivery_ns"] / 1e9)
    metrics["unattributed_share"] = 1.0 - (trace["self_ns"] / 1e9) / worked_s
    return metrics


def per_layer_units():
    units = {}
    for stem in LAYER_STEMS:
        units[stem + ".calls"] = "count"
        for part in ("total", "p50", "tail"):
            units[stem + "." + part] = "s"
    units.update({
        "service.executor.busy_fraction": "ratio",
        "service.executor.chunks": "count",
        "service.executor.simulators_constructed": "count",
        "service.executor.critical_campaign_s": "s",
        "service.result_cache.hits": "count",
        "service.result_cache.stores": "count",
        "service.network.demotions": "count",
        "patterns.predict.hits": "count",
        "patterns.predict.residue": "count",
        "patterns.predict.hit_ratio": "ratio",
        "fi.pe_steps": "count",
        "fi.pe_steps_per_s": "1/s",
        "systolic.lanes_stepped": "count",
        "systolic.lane_fill_ratio": "ratio",
        "mitigation.abft.detected": "count",
        "unattributed_share": "ratio",
        "trace_overhead_ratio": "ratio",
    })
    return units


# --- the run ----------------------------------------------------------------

def median(values, unit):
    """The median; for counts, the lower middle value, so it stays a count."""
    if unit == "count":
        return statistics.median_low(values)
    return statistics.median(values)


def fingerprint(rep):
    report = rep["report"]
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": report["workers"],
        "simd": report["simd"],
        "build_type": report["build_type"],
        "compiler": report["compiler"],
    }


def run(args):
    digests = expected_digests()
    build()
    space = Workspace(args.seed)
    start = time.monotonic()
    try:
        cache = None
        if args.workload == "table1-warm":
            cache = warm_cache(digests)

        plain, traced, setups = [], [], []
        min_reps = MIN_TRACED_REPS if args.trace else MIN_REPS
        last_round_s = 0.0

        def keep_going():
            elapsed = time.monotonic() - start
            if elapsed > RUN_BUDGET_S:
                return False
            # Start another round only if it should end within --seconds.
            return (len(plain) < min_reps
                    or elapsed + last_round_s <= args.seconds)

        while keep_going():
            round_start = time.monotonic()
            rep = measure_once(args.workload, space, digests, False, cache)
            plain.append(rep)
            setups.append(rep["setup_s"])
            if not args.trace:
                for _ in range(int(SETUP_SHARE * rep["wall_s"]
                                   / rep["setup_s"])):
                    setups.append(measure_setup(args.workload, space, cache))
            if args.trace:
                traced.append(measure_once(args.workload, space, digests,
                                           True, cache))
            last_round_s = time.monotonic() - round_start
    finally:
        space.close()

    reps = plain + traced
    attempted = sum(rep["experiments"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(json.dumps({"fingerprint": fingerprint(plain[0]),
                      "workload": args.workload, "seed": args.seed,
                      "repetitions": len(reps)}))
    log("fingerprint: %s" % json.dumps(fingerprint(plain[0])))
    log("%s: %d repetitions, %d set-up samples, record digest %s ok, "
        "failed_ratio %.6f" % (args.workload, len(reps), len(setups),
                               digests[args.workload][:16],
                               failed / attempted))

    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END_UNITS.items():
            values = (setups if name == "setup_s"
                      else [rep[name] for rep in plain])
            metrics[name] = {"value": median(values, unit), "unit": unit}
    else:
        per_rep = [layer_metrics(rep) for rep in traced]
        for name in EXACT_COUNTS:
            values = {m[name] for m in per_rep}
            if len(values) != 1:
                raise BenchError("count %s did not repeat exactly: %s"
                                 % (name, sorted(values)))
        units = per_layer_units()
        for name, unit in units.items():
            if name == "trace_overhead_ratio":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in plain))
            else:
                value = median([m[name] for m in per_rep], unit)
            metrics[name] = {"value": value, "unit": unit}
    for name, metric in metrics.items():
        log("  %-44s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM kills the running harness and removes the workspace.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run(args)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
