"""Inverted lists used alongside the R-trees (Section 4.1.2).

* :class:`PointList` (the paper's *PList*) maps each distinct route-point
  location to the set of route ids covering it.  In a bus network many routes
  share stops, so a single filtering point can rule out several routes at
  once (its *crossover route set*, Definition 7).
* The paper's *NList* maps every RR-tree node to the set of route ids that
  have at least one point inside the node; it is used during verification
  to add many "closer" routes at once without opening the node.  It lives
  on the nodes themselves (:attr:`repro.index.rtree.RTreeNode.payload_union`
  and :meth:`~repro.index.rtree.RTreeNode.union_ids`), with its packed form
  in :mod:`repro.engine.columnar` (``encode_nlist`` / ``install_nlist``).

The PList exposes a **columnar boundary** (``to_columns()`` /
``from_columns()``, encodings in :mod:`repro.engine.columnar`): sorted
packed id arrays with offset tables instead of hash-ordered dicts of sets.
Iteration surfaces (:meth:`PointList.points`, :meth:`PointList
.sorted_items`) are sorted as well, so every serialised form — pickles,
reseed payloads, delta replays — is byte-deterministic across runs and
interpreters.  A :class:`PointList` rebuilt ``from_columns`` stays in
*columnar mode* (reads answered by binary search over the packed arrays,
which may be read-only views of a mapped store file) until the first mutation
materialises a private dict.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

PointKey = Tuple[float, float]


def point_key(point: Sequence[float]) -> PointKey:
    """Canonical dictionary key for a point location."""
    return (float(point[0]), float(point[1]))


class PointList:
    """Inverted list from route-point location to covering route ids (PList)."""

    def __init__(self) -> None:
        self._routes_by_point: Optional[Dict[PointKey, Set[int]]] = {}
        #: Columnar backing (``repro.engine.columnar.PListColumns``) when in
        #: columnar mode; reads go through its binary search, the dict above
        #: is ``None`` until a mutation materialises it.
        self._columns = None

    # ------------------------------------------------------------------
    # Columnar boundary
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, columns) -> "PointList":
        """Wrap packed PList columns without materialising a dict.

        The columns may be private arrays (columnar pickle) or read-only
        views of a mapped store file; either way lookups bisect the sorted
        point column, and the first mutation copies out into a private dict
        (mapped views are never written to).
        """
        point_list = cls()
        point_list._columns = columns
        point_list._routes_by_point = None
        return point_list

    def to_columns(self):
        """This PList as packed sorted columns (encoded on demand)."""
        if self._routes_by_point is None:
            return self._columns
        from repro.engine.columnar import encode_plist

        return encode_plist(self.sorted_items())

    def _mapping(self) -> Dict[PointKey, Set[int]]:
        """The mutable dict form, materialised from columns on first need."""
        mapping = self._routes_by_point
        if mapping is None:
            columns = self._columns
            mapping = {key: set(ids) for key, ids in columns.items()}
            self._routes_by_point = mapping
            self._columns = None
        return mapping

    def sorted_items(self) -> List[Tuple[PointKey, Tuple[int, ...]]]:
        """``(point, sorted route ids)`` pairs, sorted by point location.

        The canonical deterministic iteration: encoders and pickles consume
        this instead of hash-ordered dict iteration.
        """
        if self._routes_by_point is None:
            return [
                (key, tuple(ids)) for key, ids in self._columns.items()
            ]
        return [
            (key, tuple(sorted(ids)))
            for key, ids in sorted(self._routes_by_point.items())
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, point: Sequence[float], route_id: int) -> None:
        """Register that ``route_id`` passes through ``point``."""
        self._mapping().setdefault(point_key(point), set()).add(route_id)

    def discard(self, point: Sequence[float], route_id: int) -> None:
        """Remove a route from a point's crossover set (no-op if absent)."""
        key = point_key(point)
        mapping = self._mapping()
        routes = mapping.get(key)
        if routes is None:
            return
        routes.discard(route_id)
        if not routes:
            del mapping[key]

    # ------------------------------------------------------------------
    # Reads (dict or columnar mode)
    # ------------------------------------------------------------------
    def crossover_routes(self, point: Sequence[float]) -> FrozenSet[int]:
        """Crossover route set ``C(r)`` of a point (Definition 7)."""
        key = point_key(point)
        if self._routes_by_point is None:
            return self._columns.crossover(key)
        return frozenset(self._routes_by_point.get(key, frozenset()))

    def crossover_degree(self, point: Sequence[float]) -> int:
        """``|C(r)|``: number of routes covering the point."""
        key = point_key(point)
        if self._routes_by_point is None:
            return self._columns.degree(key)
        return len(self._routes_by_point.get(key, ()))

    def points(self) -> Iterator[PointKey]:
        """Iterate all distinct point locations, sorted by ``(x, y)``."""
        if self._routes_by_point is None:
            return self._columns.keys()
        return iter(sorted(self._routes_by_point))

    def __len__(self) -> int:
        if self._routes_by_point is None:
            return len(self._columns)
        return len(self._routes_by_point)

    def __contains__(self, point: Sequence[float]) -> bool:
        key = point_key(point)
        if self._routes_by_point is None:
            return self._columns.contains(key)
        return key in self._routes_by_point

    def __repr__(self) -> str:
        mode = "columnar" if self._routes_by_point is None else "dict"
        return f"PointList(points={len(self)}, mode={mode})"
