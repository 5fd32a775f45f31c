"""One benchmark process: set up one workload and run its items.

Started by run.py, one process per measurement, so that peak memory,
set-up time and slopelab's process-wide caches (the exactnum log cache)
never carry over from another workload or another run.  Prints one JSON
object as its last line of output.

Modes:
  setup   import slopelab and generate the inputs, then stop
  timed   closed loop for --seconds, ending on a block boundary after at
          least the workload's min_items
  fixed   the workload's fixed traced item set, untraced
  traced  the same item set with the span recorder installed
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

HARD_CAP_S = 120.0  # stop a very slow run early rather than overrun the time limit


def import_slopelab():
    """Import the package from the checkout's own src/ tree."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import slopelab.gitstab
    import slopelab.harness
    import slopelab.lattice

    where = Path(slopelab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError("slopelab was imported from %s, not from %s" % (where, src))
    return slopelab


def load_reference(workload: str, seed: int):
    path = HERE / "reference.json"
    with open(path) as handle:
        ref = json.load(handle).get(workload)
    if ref is None or ref["seed"] != seed:
        return None
    return ref["items"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--spans-out", help="file prefix for the recorded spans")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    sl = import_slopelab()
    import workloads

    w = workloads.WORKLOADS[args.workload](sl)
    inputs = w.inputs(args.seed)
    setup_s = time.perf_counter() - t_start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    run_item = w.run
    if args.mode == "traced":
        import spans

        recorder = spans.SpanRecorder()
        recorder.install("slopelab")
        run_item = lambda x: recorder.run_item(w.run, x)  # noqa: E731

    if args.mode == "timed":
        def stop(i, elapsed):
            if elapsed >= HARD_CAP_S:
                return True
            return i % w.block == 0 and i >= w.min_items and elapsed >= args.seconds
    else:
        def stop(i, _elapsed):
            return i >= w.trace_items

    reference = load_reference(args.workload, args.seed)
    inconclusive = sl.gitstab.SearchNotConverged
    clock = time.perf_counter
    latencies, digests, statuses, reasons = [], [], [], []
    mismatches = 0
    i = 0
    loop_start = clock()
    while not stop(i, clock() - loop_start):
        x = inputs[i % len(inputs)]
        t0 = clock()
        try:
            out = run_item(x)
            failure = None
        except inconclusive as exc:
            failure = ("inconclusive", "SearchNotConverged: %s" % exc)
        except Exception as exc:  # an item that raises is counted, not fatal
            failure = ("error", "%s: %s" % (type(exc).__name__, exc))
        latencies.append(clock() - t0)
        if failure is not None:
            item = workloads.Item(failure[0], workloads.digest(list(failure)), failure[1])
        else:
            try:
                item = w.check(i, x, out)
            except Exception as exc:
                item = workloads.Item("error", "", "check raised %s: %s" % (type(exc).__name__, exc))
        if reference is not None and i < len(reference) and item.digest != reference[i]:
            mismatches += 1
            if item.status == "ok":
                item = workloads.Item("error", item.digest, "digest differs from the reference")
        if item.reason and len(reasons) < 10:
            reasons.append("item %d: %s" % (i, item.reason))
        statuses.append(item.status)
        digests.append(item.digest)
        i += 1

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "errors": statuses.count("error"),
        "inconclusive": statuses.count("inconclusive"),
        "reasons": reasons,
        "digests": digests,
        "reference_items": 0 if reference is None else min(len(reference), i),
        "reference_mismatches": mismatches,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": os.environ.get("SLOPE_LAB_THREADS", "unset"),
    }
    if recorder is not None:
        recorder.uninstall()
        if args.spans_out:
            recorder.dump(args.spans_out)
        result["trace"] = recorder.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
