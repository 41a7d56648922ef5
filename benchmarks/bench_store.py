"""Cold start: memory-mapped store attach vs pickled-context decode.

Not a figure of the paper: this benchmark quantifies the O(1) cold start
of the persistent columnar store (see ``docs/persistence.md``).  A serving
process can become ready two ways —

* **pickle decode**: ``pickle.loads`` of the columnar execution-context
  payload — every column is copied and rebuilt, so the cost grows with
  the dataset (the pre-store behaviour, and still the degradation path);
* **mmap attach**: :func:`repro.engine.store.attach_context` on a
  :class:`~repro.engine.store.StoreHandle` — validate a fixed-size
  header, map the file, wrap read-only views; no column is touched until
  a query needs it, so the cost is independent of dataset size

— measured at **two dataset scales** (the benchmark city at 1× and
``LARGE_SCALE_FACTOR``×).  Correctness is checked first: the attached
context must answer a probe batch exactly like the decoded one.

Acceptance bars:

* mmap attach stays **flat** across scales (within
  ``ATTACH_FLAT_TOLERANCE``× despite a ``LARGE_SCALE_FACTOR``× dataset);
* at the larger scale, pickle decode costs ≥ ``DECODE_SLOWDOWN_BAR``×
  more than mmap attach (measured here at >100×; the bar leaves room
  for noisy shared runners);
* the reseed handle a store-backed pool ships per worker stays under
  ``HANDLE_BYTES_BAR`` bytes regardless of scale.

Results are written as a text table, as JSON under
``benchmarks/results/``, and appended to the repo-root
``BENCH_batch.json`` trajectory artifact as the ``store`` row.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
import time

from repro.bench.harness import build_benchmark_city
from repro.bench.reporting import append_trajectory, format_table, git_commit
from repro.engine import store as store_module
from repro.geometry.kernels import numpy_available

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_batch.json",
)

REPEATS = 7
PROBE_K = 3

#: The second dataset scale of the cold-start measurement.
LARGE_SCALE_FACTOR = 4.0

#: mmap attach at the large scale may cost at most this multiple of the
#: small scale — the "O(1) cold start" claim, with headroom for noise
#: (measured flat to within a few percent).
ATTACH_FLAT_TOLERANCE = 2.0

#: Pickle decode must cost at least this multiple of mmap attach at the
#: larger scale (measured at >100×).
DECODE_SLOWDOWN_BAR = 5.0

#: The pickled :class:`~repro.engine.store.StoreHandle` a store-backed
#: pool ships per worker seed.
HANDLE_BYTES_BAR = 4096


def _best_of(repeats, call):
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def _measure_scale(bundle, bench_scale, tmp_dir):
    """Cold-start timings (decode vs attach) for one dataset scale."""
    city, _, processor, workload = bundle
    path = os.path.join(tmp_dir, f"{bench_scale.name}.store")
    handle = store_module.save_indexes(
        path, processor.route_index, processor.transition_index
    )
    payload = pickle.dumps(
        processor.engine_context, protocol=pickle.HIGHEST_PROTOCOL
    )

    # Correctness before timing: the attached context answers exactly
    # like the processor it was packed from.
    probe = workload.query_routes(2, 3, 1.0 * bench_scale.distance_scale)
    expected = [
        result.confirmed_endpoints
        for result in processor.query_batch(probe, PROBE_K)
    ]
    from repro.core.rknnt import RkNNTProcessor

    attached = RkNNTProcessor.from_store(handle)
    actual = [
        result.confirmed_endpoints
        for result in attached.query_batch(probe, PROBE_K)
    ]
    assert actual == expected, "store-backed answers diverge from direct"

    decode_seconds = _best_of(REPEATS, lambda: pickle.loads(payload))

    def attach():
        context = store_module.attach_context(handle)
        context._store_attachment.close()

    attach_seconds = _best_of(REPEATS, attach)
    handle_bytes = len(pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL))
    return {
        "route_points": sum(len(route) for route in city.routes),
        "store_bytes": handle.nbytes,
        "pickle_bytes": len(payload),
        "handle_bytes": handle_bytes,
        "decode_s": decode_seconds,
        "attach_s": attach_seconds,
        "slowdown": (
            decode_seconds / attach_seconds if attach_seconds else math.inf
        ),
    }


def test_store_cold_start(benchmark, la_bundle, bench_scale, write_result, tmp_path):
    small = _measure_scale(la_bundle, bench_scale, str(tmp_path))
    large_scale = dataclasses.replace(
        bench_scale,
        name=f"{bench_scale.name}-x{LARGE_SCALE_FACTOR:g}",
        city_scale=bench_scale.city_scale * LARGE_SCALE_FACTOR,
    )
    large = _measure_scale(
        build_benchmark_city("la", large_scale), large_scale, str(tmp_path)
    )
    attach_ratio = (
        large["attach_s"] / small["attach_s"] if small["attach_s"] else math.inf
    )

    rows = [
        {"scale": bench_scale.name, **small},
        {"scale": large_scale.name, **large},
    ]
    table = format_table(
        rows,
        title=(
            "cold start: pickle decode vs mmap attach "
            f"(attach ratio {attach_ratio:.2f}x for "
            f"{LARGE_SCALE_FACTOR:g}x the dataset; decode slowdown "
            f"{large['slowdown']:.1f}x at the large scale)"
        ),
    )
    write_result("store", table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "benchmark": "store",
        "scale": bench_scale.name,
        "numpy": numpy_available(),
        "cold_start": rows,
        "attach_ratio": attach_ratio,
        "decode_slowdown_large": large["slowdown"],
    }
    with open(
        os.path.join(RESULTS_DIR, "store.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(payload, handle, indent=2)
    append_trajectory(
        TRAJECTORY_PATH,
        {
            "commit": git_commit(os.path.dirname(os.path.abspath(__file__))),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **payload,
        },
    )

    # Acceptance bar: attach does not scale with the dataset.
    assert attach_ratio <= ATTACH_FLAT_TOLERANCE, (
        f"mmap attach grew {attach_ratio:.2f}x on a "
        f"{LARGE_SCALE_FACTOR:g}x dataset (bound {ATTACH_FLAT_TOLERANCE}x)"
    )
    # Acceptance bar: at scale, decode pays for every column; attach does
    # not.
    assert large["slowdown"] >= DECODE_SLOWDOWN_BAR, (
        f"expected pickle decode >= {DECODE_SLOWDOWN_BAR}x slower than "
        f"mmap attach at the large scale, got {large['slowdown']:.2f}x"
    )
    # Acceptance bar: the reseed handle stays tiny at every scale.
    for row in rows:
        assert row["handle_bytes"] < HANDLE_BYTES_BAR, (
            f"store handle pickled to {row['handle_bytes']} B at scale "
            f"{row['scale']} (bar {HANDLE_BYTES_BAR} B)"
        )

    # pytest-benchmark datum: one O(1) attach at the benchmark scale.
    path = os.path.join(str(tmp_path), "bench.store")
    _, _, processor, _ = la_bundle
    handle = store_module.save_indexes(
        path, processor.route_index, processor.transition_index
    )

    def attach_once():
        context = store_module.attach_context(handle)
        context._store_attachment.close()

    benchmark(attach_once)
