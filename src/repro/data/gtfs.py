"""GTFS-like and CSV IO for routes and transitions.

The paper extracts its route datasets from the NYC and LA GTFS feeds.  This
module provides:

* a loader for a minimal GTFS directory (``stops.txt``, ``trips.txt``,
  ``stop_times.txt``) that reconstructs one route per trip, so users who have
  a real feed can run the library on it;
* simple CSV persistence for :class:`~repro.model.dataset.RouteDataset` and
  :class:`~repro.model.dataset.TransitionDataset`, used by the examples to
  cache generated datasets between runs.

Only the Python standard library is used; files are plain UTF-8 CSV.
"""

from __future__ import annotations

import csv
import os
from typing import Dict, List, Optional, Tuple

from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition


# ----------------------------------------------------------------------
# Route CSV  (route_id, sequence, x, y, name)
# ----------------------------------------------------------------------
def save_routes_csv(routes: RouteDataset, path: str) -> None:
    """Write a route dataset to a CSV file (one row per route point)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["route_id", "sequence", "x", "y", "name"])
        for route in routes:
            for sequence, point in enumerate(route.points):
                writer.writerow(
                    [route.route_id, sequence, point.x, point.y, route.name or ""]
                )


def load_routes_csv(path: str) -> RouteDataset:
    """Read a route dataset written by :func:`save_routes_csv`."""
    points_by_route: Dict[int, List[Tuple[int, float, float]]] = {}
    names: Dict[int, Optional[str]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            route_id = int(row["route_id"])
            points_by_route.setdefault(route_id, []).append(
                (int(row["sequence"]), float(row["x"]), float(row["y"]))
            )
            names[route_id] = row.get("name") or None
    dataset = RouteDataset()
    for route_id in sorted(points_by_route):
        rows = sorted(points_by_route[route_id])
        points = [(x, y) for _, x, y in rows]
        dataset.add(Route(route_id, points, name=names.get(route_id)))
    return dataset


# ----------------------------------------------------------------------
# Transition CSV  (transition_id, origin_x, origin_y, dest_x, dest_y, timestamp)
# ----------------------------------------------------------------------
def save_transitions_csv(transitions: TransitionDataset, path: str) -> None:
    """Write a transition dataset to a CSV file (one row per transition)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["transition_id", "origin_x", "origin_y", "dest_x", "dest_y", "timestamp"]
        )
        for transition in transitions:
            writer.writerow(
                [
                    transition.transition_id,
                    transition.origin.x,
                    transition.origin.y,
                    transition.destination.x,
                    transition.destination.y,
                    "" if transition.timestamp is None else transition.timestamp,
                ]
            )


def load_transitions_csv(path: str) -> TransitionDataset:
    """Read a transition dataset written by :func:`save_transitions_csv`."""
    dataset = TransitionDataset()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            timestamp_raw = row.get("timestamp", "")
            timestamp = float(timestamp_raw) if timestamp_raw else None
            dataset.add(
                Transition(
                    int(row["transition_id"]),
                    (float(row["origin_x"]), float(row["origin_y"])),
                    (float(row["dest_x"]), float(row["dest_y"])),
                    timestamp=timestamp,
                )
            )
    return dataset


# ----------------------------------------------------------------------
# Minimal GTFS loader
# ----------------------------------------------------------------------
def load_gtfs_directory(directory: str, max_routes: Optional[int] = None) -> RouteDataset:
    """Load bus routes from a minimal GTFS directory.

    Required files and columns:

    * ``stops.txt`` — ``stop_id``, ``stop_lat``, ``stop_lon``;
    * ``trips.txt`` — ``trip_id``, ``route_id``;
    * ``stop_times.txt`` — ``trip_id``, ``stop_id``, ``stop_sequence``.

    One representative trip is kept per GTFS ``route_id`` (the first trip
    encountered), which is how the paper counts ``|DR|``.

    Parameters
    ----------
    max_routes:
        Optional cap on the number of routes loaded.
    """
    stops_path = os.path.join(directory, "stops.txt")
    trips_path = os.path.join(directory, "trips.txt")
    stop_times_path = os.path.join(directory, "stop_times.txt")
    for required in (stops_path, trips_path, stop_times_path):
        if not os.path.exists(required):
            raise FileNotFoundError(f"missing GTFS file: {required}")

    stop_locations: Dict[str, Tuple[float, float]] = {}
    with open(stops_path, newline="", encoding="utf-8-sig") as handle:
        for row in csv.DictReader(handle):
            stop_locations[row["stop_id"]] = (
                float(row["stop_lon"]),
                float(row["stop_lat"]),
            )

    representative_trip: Dict[str, str] = {}
    with open(trips_path, newline="", encoding="utf-8-sig") as handle:
        for row in csv.DictReader(handle):
            representative_trip.setdefault(row["route_id"], row["trip_id"])

    trips_wanted = set(representative_trip.values())
    stops_by_trip: Dict[str, List[Tuple[int, str]]] = {}
    with open(stop_times_path, newline="", encoding="utf-8-sig") as handle:
        for row in csv.DictReader(handle):
            trip_id = row["trip_id"]
            if trip_id not in trips_wanted:
                continue
            stops_by_trip.setdefault(trip_id, []).append(
                (int(row["stop_sequence"]), row["stop_id"])
            )

    dataset = RouteDataset()
    next_id = 0
    for gtfs_route_id, trip_id in sorted(representative_trip.items()):
        stop_rows = sorted(stops_by_trip.get(trip_id, []))
        points = [
            stop_locations[stop_id]
            for _, stop_id in stop_rows
            if stop_id in stop_locations
        ]
        if len(points) < 2:
            continue
        dataset.add(Route(next_id, points, name=str(gtfs_route_id)))
        next_id += 1
        if max_routes is not None and next_id >= max_routes:
            break
    return dataset
