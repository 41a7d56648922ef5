"""Shared pieces of the three workloads: results, percentiles, stamps and
the executor-stage breakdown computed from spans."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from statistics import median
from typing import Dict, List, Optional, Sequence

from repro.bench.parameters import DEFAULT_INTERVAL, get_scale
from repro.core.rknnt import DIVIDE_CONQUER, FILTER_REFINE, VORONOI
from repro.engine.executor import QueryExecutor
from repro.geometry.kernels import numpy_available, resolve_backend

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")

#: Table 4 defaults used by every RkNNT query of the benchmark.
K = 10
QUERY_LENGTH = 5
INTERVAL = DEFAULT_INTERVAL * get_scale("small").distance_scale

#: Every n-th transition forms the brute-force oracle's sample of the
#: transition set.
ORACLE_STRIDE = 12

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

METHOD_LABELS = {FILTER_REFINE: "fr", VORONOI: "vo", DIVIDE_CONQUER: "dc"}

#: Executor stages wrapped in traced runs, as (method name, span name).
STAGES = (
    ("filter_routes", "filter"),
    ("prune_transitions", "prune"),
    ("verify", "verify"),
)


class Report:
    """Metrics of one run plus the counts the final line carries."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.samples: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.details: Dict[str, object] = {}

    def add(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def check(self, ok: bool, what: str) -> None:
        """Count a wrong output as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)


def p95(values: Sequence[float]) -> float:
    """95th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=20)[18]


def add_latency(report: Report, prefix: str, values_ms: Sequence[float]) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_p95_ms`` with their sample count."""
    report.add(f"{prefix}_p50_ms", median(values_ms), "ms", samples=len(values_ms))
    report.add(f"{prefix}_p95_ms", p95(values_ms), "ms", samples=len(values_ms))


def timed_setups(setup, release=None, repeats: int = SETUP_REPEATS):
    """Run ``setup()`` ``repeats`` times; return (seconds list, last result).

    Before each set-up but the first, the previous result is handed to
    ``release`` (when given) and collected, outside the timed call, so each
    set-up starts from the same heap and only the set-up itself is timed.
    """
    seconds: List[float] = []
    result = None
    for _ in range(repeats):
        if result is not None and release is not None:
            release(result)
        result = None
        gc.collect()
        started = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - started)
    return seconds, result


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident sets (``VmHWM``) of a live process and all its
    descendants, such as pool workers, in MiB."""
    total_kib = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as handle:
                total_kib += next(
                    int(line.split()[1]) for line in handle if line.startswith("VmHWM:")
                )
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (OSError, StopIteration):
            if current == pid:
                raise RuntimeError(f"no VmHWM for process {pid}")
            # A descendant that exits while being read holds no memory now.
    return total_kib / 1024.0


def commit() -> str:
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, preset: str, scale: float, trace: bool) -> Dict[str, object]:
    numpy_version = None
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return {
        "workload": workload,
        "seed": seed,
        "preset": preset,
        "scale": scale,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": resolve_backend("auto"),
        "commit": commit(),
        "knobs": {k: v for k, v in sorted(os.environ.items()) if k.startswith("RKNNT_")},
    }


# ----------------------------------------------------------------------
# Executor stages and query counters
# ----------------------------------------------------------------------
def wrap_executor(tracer) -> None:
    """Span every ``QueryExecutor`` stage call (traced runs only)."""
    for attribute, stage in STAGES:
        tracer.wrap(QueryExecutor, attribute, f"executor.{stage}")


class QueryCounters:
    """Per-method sums of the ``QueryStatistics`` every result carries."""

    FIELDS = (
        "candidates",
        "confirmed_points",
        "filter_points",
        "route_nodes_visited",
        "transition_nodes_visited",
    )

    def __init__(self) -> None:
        self.queries: Dict[str, int] = {}
        self.sums: Dict[str, Dict[str, int]] = {}

    def add(self, label: str, stats) -> None:
        self.queries[label] = self.queries.get(label, 0) + 1
        sums = self.sums.setdefault(label, dict.fromkeys(self.FIELDS, 0))
        for name in self.FIELDS:
            sums[name] += getattr(stats, name)

    def metrics(self, report: Report) -> None:
        for label, queries in self.queries.items():
            sums = self.sums[label]
            report.add(f"executor.candidates.{label}", sums["candidates"] / queries, "count", queries)
            report.add(
                f"executor.confirm_ratio.{label}",
                sums["confirmed_points"] / max(1, sums["candidates"]),
                "ratio",
                queries,
            )
            report.add(f"executor.filter_points.{label}", sums["filter_points"] / queries, "count", queries)
            report.add(f"index.route_nodes.{label}", sums["route_nodes_visited"] / queries, "count", queries)
            report.add(
                f"index.transition_nodes.{label}",
                sums["transition_nodes_visited"] / queries,
                "count",
                queries,
            )


def stage_metrics(report: Report, tracer, queries: Dict[str, int]) -> None:
    """``executor.{filter,prune,verify}_ms.<method>``: self time per query.

    A stage span takes its method from the nearest enclosing span tagged
    with ``method``; ``queries`` counts the queries answered per method.
    """
    self_ns = tracer.self_times_ns()
    totals: Dict[tuple, int] = {}
    for span in tracer.spans:
        if span.name.startswith("executor."):
            key = (span.name[len("executor."):], tracer.tag_of(span, "method"))
            totals[key] = totals.get(key, 0) + self_ns[span.id]
    for label, count in queries.items():
        for _, stage in STAGES:
            report.add(
                f"executor.{stage}_ms.{label}",
                totals.get((stage, label), 0) / count / 1e6,
                "ms",
                count,
            )


def self_time_ms(tracer, name: str) -> float:
    """Summed self time of every span called ``name``, in milliseconds."""
    self_ns = tracer.self_times_ns()
    return sum(self_ns[span.id] for span in tracer.spans if span.name == name) / 1e6
