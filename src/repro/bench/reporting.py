"""Plain-text rendering of benchmark results (tables, series, histograms).

The paper's figures are line charts, stacked bars and frequency histograms.
The benchmark scripts print text equivalents so the shape of each result (who
wins, how cost grows, where the mass of a distribution sits) can be compared
against the paper without a plotting stack.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


def git_commit(cwd: Optional[str] = None) -> str:
    """Short hash of the current commit (``"unknown"`` outside a checkout)."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                cwd=cwd,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def append_trajectory(path: str, entry: Mapping[str, object]) -> None:
    """Append one benchmark entry to a JSON trajectory artifact.

    The artifact accumulates one entry per benchmark run (CI appends on
    every PR), so perf numbers form a history next to the code.  A missing,
    corrupt or foreign file restarts the trajectory instead of failing the
    benchmark.

    The append is **atomic**: the updated history is written to a
    temporary file in the same directory and renamed over the target
    (``os.replace``), so a reader — or one of the four CI matrix legs
    appending concurrently — never observes a half-written file.  Two
    truly simultaneous appends still last-writer-win on the rename (one
    entry is lost, the file stays valid), which is the right trade for a
    best-effort history artifact.

    Parameters
    ----------
    path:
        The trajectory file (e.g. the repo-root ``BENCH_batch.json``).
    entry:
        The run's payload; should carry at least ``benchmark``, ``commit``
        and ``timestamp`` keys so entries from different benchmarks can be
        told apart.
    """
    history: Dict[str, object] = {"benchmark": "trajectory", "entries": []}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict) and isinstance(
                loaded.get("entries"), list
            ):
                history = loaded
        except (OSError, ValueError):
            pass  # corrupt or foreign file: restart the trajectory
    history["entries"].append(dict(entry))
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(history, handle, indent=2)
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render rows of dictionaries as an aligned text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        {column: _format_value(row.get(column, ""), precision) for column in columns}
        for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rendered:
        lines.append(
            " | ".join(row[column].rjust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    x_label: str,
    y_label: str,
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render several (x, y) series side by side, one row per x value."""
    xs: List[float] = sorted({x for points in series.values() for x, _ in points})
    rows = []
    for x in xs:
        row: Dict[str, object] = {x_label: x}
        for name, points in series.items():
            lookup = {px: py for px, py in points}
            if x in lookup:
                row[f"{name} {y_label}"] = lookup[x]
        rows.append(row)
    return format_table(rows, precision=precision, title=title)


def format_histogram(
    values: Sequence[float],
    bins: int = 10,
    width: int = 40,
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render a frequency histogram of ``values`` with ASCII bars."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        lines.append("(no values)")
        return "\n".join(lines)
    low = min(values)
    high = max(values)
    if math.isclose(low, high):
        lines.append(f"all {len(values)} values ≈ {low:.{precision}f}")
        return "\n".join(lines)
    bin_width = (high - low) / bins
    counts = [0] * bins
    for value in values:
        index = min(bins - 1, int((value - low) / bin_width))
        counts[index] += 1
    peak = max(counts)
    for index, count in enumerate(counts):
        start = low + index * bin_width
        end = start + bin_width
        bar = "#" * (0 if peak == 0 else int(round(width * count / peak)))
        lines.append(
            f"[{start:8.{precision}f}, {end:8.{precision}f}) "
            f"{count:6d} {bar}"
        )
    return "\n".join(lines)


def summarize_distribution(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics (count/min/median/mean/p90/max) of a distribution."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    count = len(ordered)

    def percentile(fraction: float) -> float:
        if count == 1:
            return ordered[0]
        position = fraction * (count - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        weight = position - lower
        return ordered[lower] * (1 - weight) + ordered[upper] * weight

    return {
        "count": count,
        "min": ordered[0],
        "median": percentile(0.5),
        "mean": sum(ordered) / count,
        "p90": percentile(0.9),
        "max": ordered[-1],
    }
