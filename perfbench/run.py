"""slopelab benchmark: three exact workloads, end-to-end and per-module metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tensor_mu_max --seed 1 --seconds 10 --trace 0

Every measurement runs in a fresh worker process (worker.py), one at a time,
each single-threaded except the pool measurement below.

--trace 0 measures the end-to-end metrics with tracing off: set-up several
times in fresh processes, then one closed-loop run of at least --seconds.

--trace 1 measures the per-module metrics on the workload's fixed item set
in three processes: untraced, traced with the span recorder, and untraced
with SLOPE_LAB_THREADS set to the number of usable CPUs.  --seconds does not
apply; the item set is fixed so that counts repeat exactly for a seed.

Every item's outputs are checked and digested.  The second-to-last line of
output is a JSON record of the run (workload reasons, tail percentile and
item count, error and inconclusive fractions, digests); the last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (both stdlib only; slopelab is imported by the workers)
import workloads  # noqa: E402

SETUP_RUNS = 5  # set-up samples in fresh processes, besides the measuring run's own
TIME_LIMIT_S = 170.0  # the whole invocation, all workers included
SELF_SUM_TOLERANCE = 0.02  # traced self times must add up to the traced wall time
SPANS_DIR = ".perfbench_out"  # relative to the checkout root


class WorkerFailed(RuntimeError):
    pass


def worker(args, deadline: float, mode: str, threads=None, spans_out=None) -> dict:
    env = dict(os.environ)
    env.pop("SLOPE_LAB_THREADS", None)
    if threads is not None:
        env["SLOPE_LAB_THREADS"] = str(threads)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("time limit reached before the %s worker" % mode)
    try:
        proc = subprocess.run(
            cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, timeout=remaining, text=True
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker exceeded the time limit" % mode)
    if proc.returncode != 0:
        raise WorkerFailed("%s worker exited with code %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def end_to_end(args, deadline: float):
    setups = [worker(args, deadline, "setup")["setup_s"] for _ in range(SETUP_RUNS)]
    run = worker(args, deadline, "timed")
    setups.append(run["setup_s"])
    lat = sorted(run["latencies"])
    n = len(lat)
    wall = sum(lat)
    metrics = {
        "items_per_s": (n / wall, "1/s"),
        "item_p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
        "item_p90_ms": (1000 * nearest_rank(lat, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_kib"] / 1024, "MiB"),
    }
    record = {
        "items": n,
        "timed_wall_s": wall,
        "p90_items_beyond": n - math.ceil(0.9 * n),
        "setup_samples_s": setups,
        "error_frac": run["errors"] / n,
        "inconclusive_frac": run["inconclusive"] / n,
        "SLOPE_LAB_THREADS": run["threads"],
    }
    return [run], metrics, record


def per_layer(args, deadline: float):
    (ROOT / SPANS_DIR).mkdir(exist_ok=True)
    prefix = "%s/spans-%s-%d" % (SPANS_DIR, args.workload, args.seed)
    plain = worker(args, deadline, "fixed")
    traced = worker(args, deadline, "traced", spans_out=prefix)
    nproc = usable_cpus()
    pooled = worker(args, deadline, "fixed", threads=nproc)
    s = traced["trace"]
    fn = s["functions"]
    mod = s["modules"]
    plain_wall = sum(plain["latencies"])
    traced_wall = sum(traced["latencies"])

    absent = {"calls": 0, "self_s": 0.0}  # a function a later version removed reads as zero

    def calls(name):
        return fn.get(name, absent)["calls"]

    def self_s(name):
        return fn.get(name, absent)["self_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    self_sum = sum(mod.values())
    metrics = {}
    for name in ("linalg.gram_lll", "linalg.short_vectors_gram", "lattice.mu_max",
                 "lattice.hn_filtration", "exactnum.compare", "linalg.rref",
                 "filtration.scalar_product", "gitstab.kempf_minimize"):
        metrics[name + ".calls"] = (calls(name), "count")
        metrics[name + ".self_s"] = (self_s(name), "s")
    for name in ("lattice.morphism_height", "exactnum.approximate", "exactnum.is_prime",
                 "linalg.det", "filtration.common_compatible_basis", "filtration.adapted_basis",
                 "gitstab.minimize_fixed_basis", "gitstab.tensor_lambda"):
        metrics[name + ".calls"] = (calls(name), "count")
    for name in ("gitstab.rr_reduce", "gitstab.reduced_is_semistable"):
        metrics[name + ".self_s"] = (self_s(name), "s")
    for module in ("exactnum", "linalg", "lattice", "filtration", "gitstab", "harness"):
        metrics[module + ".self_s"] = (mod.get(module, 0.0), "s")
    metrics.update({
        "linalg.short_vectors_gram.vectors": (s["vectors"], "count"),
        "lattice.gram_lll_per_mu_max": (ratio(calls("linalg.gram_lll"), calls("lattice.mu_max")), "ratio"),
        "exactnum.approximate_per_compare": (
            ratio(calls("exactnum.approximate"), calls("exactnum.compare")), "ratio"),
        "filtration.rref_per_scalar_product": (
            ratio(s["rref_in_scalar_product"], calls("filtration.scalar_product")), "ratio"),
        "gitstab.min_norm.solve_attempts": (s["solve_attempts"], "count"),
        "gitstab.min_norm.useful_frac": (ratio(s["solve_useful"], s["solve_attempts"]), "ratio"),
        "harness.check.calls": (sum(calls("harness." + c) for c in spans.CAMPAIGNS), "count"),
        "harness.trials": (s["trials"], "count"),
        "harness.pool_speedup": (sum(pooled["latencies"]) / plain_wall, "ratio"),
        "bench.self_s": (mod.get("bench", 0.0), "s"),
        "trace.overhead": (traced_wall / plain_wall, "ratio"),
        "trace.self_sum_ratio": (self_sum / traced_wall, "ratio"),
        "trace.spans": (s["spans"], "count"),
    })
    record = {
        "items": len(traced["latencies"]),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "pooled_wall_s": sum(pooled["latencies"]),
        "pool_threads": nproc,
        "self_sum_tolerance": SELF_SUM_TOLERANCE,
        "spans_file": prefix + ".bin",
    }
    runs = [plain, traced, pooled]
    consistent = plain["digests"] == traced["digests"] == pooled["digests"]
    within = abs(self_sum / traced_wall - 1) <= SELF_SUM_TOLERANCE
    record["digests_agree_across_modes"] = consistent
    record["self_sum_within_tolerance"] = within
    return runs, metrics, record, consistent and within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED[args.workload]
    if not (ROOT / "src" / "slopelab" / "__init__.py").is_file():
        print("error: no slopelab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            runs, metrics, record, trace_ok = per_layer(args, deadline)
        else:
            runs, metrics, record = end_to_end(args, deadline)
            trace_ok = True
    except WorkerFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    main_run = runs[1] if args.trace else runs[0]
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["errors"] + r["inconclusive"] for r in runs)
    ref_items = main_run["reference_items"]
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "not_measured": workloads.NOT_MEASURED,
        "nproc": usable_cpus(),
        "python": sys.version.split()[0],
        "digest": workloads.run_digest(main_run["digests"]),
        "digest_items": min(workloads.DIGEST_ITEMS, len(main_run["digests"])),
        "reference": (
            "none for this seed" if not ref_items
            else "%d of %d items differ" % (main_run["reference_mismatches"], ref_items)
        ),
        "reasons": [reason for r in runs for reason in r["reasons"]][:10],
    })
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
