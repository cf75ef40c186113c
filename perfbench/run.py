"""The repository's benchmark: ``campaign``, ``serve`` and ``churn``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds every input from ``--seed`` and measures the program from the
sources of the checkout it sits in.  Prints the input identity and a
detail report, then as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (tracing off).  ``--trace 1``
runs the same inputs untraced and then traced on a fresh system and
reports the per-layer metrics, the tracing overhead and the share of
the timed wall the layer spans cover.  Exits 1 when an output check
fails, 2 when the program's sources are missing.

Workloads (all on the 400-table ``medium`` lake):

* ``campaign`` - the offline path: rounds of never-seen tuples and
  labelled claims, one serial ``verify_batch`` per round; the verifier
  does most of the work and its cache misses by construction.
* ``serve`` - the interactive path: a ``repro serve`` child at a fixed
  offered rate over two keep-alive connections, every request timed from
  its due time; half the requests repeat an earlier body.
* ``churn`` - writes beside reads: one closed-loop client, about one
  operation in ten edits a table cell or a document sentence, the rest
  verify tuples and claims; each write forces a re-seal on the next read.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import harness

#: metric names, units and workloads as registered at the checkout root
SPEC = harness.ROOT / "BENCHMARK.json"

#: units of the extra figures in the detail line
DETAIL_UNITS = {
    "host_slowdown": "ratio",
    "measured_objects_per_s": "objects/s",
    "failed_share": "fraction",
    "latency_p99_ms": "ms",
    "late_p99_ms": "ms",
    "dispatch_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
}

WORKLOAD_NAMES = ("campaign", "serve", "churn")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="VerifAI benchmark (see the module docstring)"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not harness.program_available() or not SPEC.is_file():
        print(
            f"program sources or {SPEC.name} not found under "
            f"{harness.ROOT}; run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    harness.use_program_sources()
    import workloads

    # unwind on SIGTERM so a running server child is stopped on the way
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    spec = json.loads(SPEC.read_text())
    store = harness.DigestStore(harness.WORK / "verdict_digests.json")
    run = workloads.WORKLOADS[args.workload]
    report = run(args.seed, args.seconds, bool(args.trace), store)
    result = report.result
    identity = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        **report.identity,
    }
    if args.trace:
        # per-layer metrics a workload does not exercise read 0
        result.metrics = {}
        for entry in spec["per_layer"]:
            result.metric(
                entry["name"], report.layers.get(entry["name"], 0.0),
                entry["unit"],
            )
    else:
        for entry in spec["end_to_end"]:
            measured = result.metrics[entry["name"]]
            if measured["unit"] != entry["unit"]:
                raise RuntimeError(f"{entry['name']}: unit {measured['unit']}")
    print("inputs " + json.dumps(identity, sort_keys=True))
    print("detail " + json.dumps(report.detail, sort_keys=True))
    print(
        f"{args.workload} seed {args.seed}: {result.attempted} attempted, "
        f"{result.failed} failed, "
        + ("outputs correct" if result.correct else "OUTPUT CHECK FAILED")
    )
    for name, metric in result.metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, unit in DETAIL_UNITS.items():
        if name in report.detail:
            print(f"  {name:34s} {report.detail[name]:14.6g} {unit}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(result.to_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
