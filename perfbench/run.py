"""Benchmark of the partial-replication DSM reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scale-causal --seed 1 --seconds 15 --trace 0

Runs whole rounds of one workload until ``--seconds`` have passed, checks
every output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` takes each session apart by layer and
reports the per-layer metrics, and writes its spans to
``.perfbench/trace-<workload>-<seed>.json``.  See ``perfbench/README.md``.

The interpreter is re-executed once with ``PYTHONHASHSEED=0`` so that set
and dict orders, and with them every count, repeat from run to run.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HASH_SEED = "0"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scale-causal", "paper-exact", "placement"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-distribution-seed", type=int, default=None,
                        help="seed of the scale-causal distribution (default 3)")
    parser.add_argument("--paper-seeds", default=None,
                        help="START:STOP range of paper-exact seeds (default 0:16)")
    parser.add_argument("--profile-seed", type=int, default=None,
                        help="seed of the placement access profile (default 7)")
    parser.add_argument("--optimizer-seed", type=int, default=None,
                        help="seed of the placement optimizer (default 3)")
    parser.add_argument("--placement-script-seed", type=int, default=None,
                        help="seed of the placement Zipf script (default 5)")
    return parser.parse_args(argv)


def reexec_with_hash_seed():
    """Run this script again under the fixed hash seed, in this process."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PERFBENCH_STARTED=repr(STARTED))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def measure(args):
    """Build the workload, run rounds for ``args.seconds``, return the result."""
    started = float(os.environ.get("PERFBENCH_STARTED", STARTED))
    sys.path[:0] = [SOURCE, HERE]
    import workloads  # the program's modules load here

    options = dict(workloads.DEFAULTS)
    for key in options:
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    trace = workloads.Trace(enabled=bool(args.trace))
    build_started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](options, args.seed)
    build_s = time.perf_counter() - build_started

    rounds = []
    first_call = None
    timing_started = None
    while True:
        trace.round = len(rounds)
        gc.collect()  # garbage of the previous round is not this round's cost
        spans_before = len(trace.spans)
        rnd = workload.round(trace)
        if first_call is None:
            first_call = min(start for _, _, _, start, _ in trace.spans[spans_before:])
            timing_started = first_call
        rounds.append(rnd)
        for failure in rnd.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        if time.perf_counter() - timing_started >= args.seconds:
            break

    attempted = sum(r.checks for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    counts = [(r.ops, r.messages, r.control_bytes, r.events) for r in rounds]
    steady = all(c == counts[0] for c in counts)
    if not steady:
        print("counts differ between rounds of the same inputs", file=sys.stderr)
    ops, messages, control_bytes, events = counts[0]
    print(json.dumps({"perfbench": args.workload, "seed": args.seed,
                      "hash_seed": os.environ.get("PYTHONHASHSEED"),
                      "rounds": len(rounds), "ops": ops, "messages": messages,
                      "control_bytes": control_bytes, "events": events}))

    if args.trace:
        metrics = layer_metrics(workloads, trace, rounds, build_s)
        write_trace(args, trace, rounds, build_s)
    else:
        run_s = statistics.median(sum(d for _, d in r.calls) for r in rounds)
        verdicts = [d for r in rounds for name, d in r.calls if name == "session.run"]
        metrics = {
            "setup_s": (first_call - started, "s"),
            "run_s": (run_s, "s"),
            "ops_per_s": (ops / run_s, "ops/s"),
            "verdict_p50_s": (statistics.median(verdicts), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "ctrl_B_per_msg": (control_bytes / messages, "B/msg"),
            "msgs_per_op": (messages / ops, "msg/op"),
        }
    return {
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def layer_metrics(workloads, trace, rounds, build_s):
    """Per-layer medians over rounds: span seconds and counts per round."""
    metrics = {"workloads.build_s": (build_s, "s")}
    for name in workloads.LAYER_SPANS:
        per_round = [trace.total(name, i) for i in range(len(rounds))]
        metrics[f"{name}_s"] = (statistics.median(per_round), "s")
    first = trace.counts.get(0, {})
    for name in workloads.LAYER_COUNTS:
        unit = "B" if name.endswith("bytes") else "count"
        metrics[name] = (first.get(name, 0), unit)
    return metrics


def write_trace(args, trace, rounds, build_s):
    """Write the spans held in memory to ``.perfbench/`` in the checkout."""
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    record = {
        "workload": args.workload, "seed": args.seed, "build_s": build_s,
        "spans": [{"round": r, "name": n, "parent": p, "start": s, "end": e}
                  for r, n, p, s, e in trace.spans],
        "counts": trace.counts,
    }
    with open(path, "w") as handle:
        json.dump(record, handle)


def main(argv=None):
    args = parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no program sources at {SOURCE}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    reexec_with_hash_seed()
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
