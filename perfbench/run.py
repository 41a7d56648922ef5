"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analytics-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric and writes the run's spans to
``perfbench/results/``.  The last line of standard output is one JSON
object: ``{"correct": …, "attempted": …, "failed": …, "metrics": {…}}``.
Every answer the program gives is checked; a wrong one makes the run exit
with code 1.  METRICS.md describes each workload and metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "analytics-batch": "analytics_batch",
    "serve-mixed": "serve_mixed",
    "plan-maxrknnt": "plan_maxrknnt",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def select_metrics(spec, report, trace: bool):
    """The metrics this mode prints, in ``BENCHMARK.json`` order.

    Per-layer metrics of a layer the workload does not run are printed as
    0 and listed as not exercised; a missing end-to-end metric, an unknown
    name or a unit that disagrees with ``BENCHMARK.json`` is an error.
    """
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, measured in report.metrics.items():
        if name not in known:
            raise RuntimeError(f"metric {name!r} is not declared in BENCHMARK.json")
        if measured["unit"] != known[name]:
            raise RuntimeError(f"metric {name!r} measured in {measured['unit']}, declared {known[name]}")
    selected, idle = {}, []
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name in report.metrics:
            selected[name] = report.metrics[name]
        elif trace:
            selected[name] = {"value": 0.0, "unit": entry["unit"]}
            idle.append(name)
        else:
            raise RuntimeError(f"end-to-end metric {name!r} was not measured")
    return selected, idle


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import repro  # the program under test, from this checkout

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    import common
    import spans

    workload = importlib.import_module(WORKLOADS[args.workload])
    tracer = spans.Tracer() if args.trace else spans.OFF
    report = common.Report()
    details = workload.run(args.seed, args.seconds, tracer, report)
    metrics, idle = select_metrics(spec, report, bool(args.trace))

    stamp = common.stamp(args.workload, args.seed, workload.PRESET, workload.SCALE, bool(args.trace))
    stamp.update(details)
    stamp.update(report.details)
    stamp["samples"] = {name: report.samples[name] for name in metrics if name in report.samples}
    if idle:
        stamp["not_exercised"] = idle
    if report.mismatches:
        stamp["mismatches"] = report.mismatches
    if args.trace:
        os.makedirs(common.RESULTS_DIR, exist_ok=True)
        path = os.path.join(common.RESULTS_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        stamp["spans"] = os.path.relpath(path, ROOT)
    print("run " + json.dumps(stamp, sort_keys=True))
    # Untraced runs also show what they measured beyond the gated metrics.
    shown = dict(metrics, **({} if args.trace else report.metrics))
    for name, measured in shown.items():
        count = report.samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        gate = "" if name in metrics else "  [not gated]"
        print(f"{name:40s} {measured['value']:>14.6g} {measured['unit']}{suffix}{gate}")

    attempted = max(1, report.attempted)
    failed = min(report.failed, attempted)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
