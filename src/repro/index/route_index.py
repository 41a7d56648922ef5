"""The RR-tree: the R-tree over route points plus PList/NList (Section 4.1.2)."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.geometry.bbox import BoundingBox
from repro.index.inverted import PointList, point_key
from repro.index.rtree import RTree, RTreeEntry, RTreeNode, paused_gc
from repro.model.dataset import RouteDataset
from repro.model.route import Route


class RouteIndex:
    """Spatial index over a :class:`~repro.model.dataset.RouteDataset`.

    The index consists of:

    * the **RR-tree**: an R-tree whose leaf entries are distinct route-point
      locations, each carrying the set of route ids covering it;
    * the **PList**: point location → crossover route set;
    * the **NList**: per RR-tree node, the set of route ids below the node,
      maintained automatically through the tree's payload-union tracking.

    The index is dynamic: routes can be added and removed after construction,
    matching the paper's requirement of supporting continuously arriving
    data.

    Parameters
    ----------
    routes:
        The dataset to index.
    max_entries:
        R-tree fanout.
    exclude_route_ids:
        Optional set of route ids to leave out of the index.  The experiments
        with "real route queries" remove the query route's own points from
        the RR-tree before searching; this parameter supports that without
        mutating the underlying dataset.
    """

    @paused_gc
    def __init__(
        self,
        routes: RouteDataset,
        max_entries: int = 16,
        exclude_route_ids: Optional[Iterable[int]] = None,
    ):
        self.routes = routes
        self.max_entries = max_entries
        self._excluded: Set[int] = set(exclude_route_ids or ())
        self.plist = PointList()
        self.tree = self._build_tree()
        #: Monotonic counter bumped on every dynamic update; the execution
        #: engine keys its per-dataset caches on it (see ``engine/context.py``).
        self.version = 0
        #: Cached columnar encoding keyed by (index version, dataset
        #: version), so repeated reseeds of an unchanged index encode at
        #: most once.  Never pickled.
        self._columns_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_tree(self) -> RTree:
        routes_by_point: Dict[Tuple[float, float], Set[int]] = {}
        for route in self.routes:
            if route.route_id in self._excluded:
                continue
            for point in route.points:
                key = point_key(point)
                routes_by_point.setdefault(key, set()).add(route.route_id)
                self.plist.add(point, route.route_id)
        return RTree.bulk_load_points(
            list(routes_by_point),
            [frozenset(route_ids) for route_ids in routes_by_point.values()],
            max_entries=self.max_entries,
            track_payload_union=True,
        )

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def add_route(self, route: Route) -> None:
        """Index a route that was appended to the dataset after construction."""
        if route.route_id in self._excluded:
            return
        self.version += 1
        for point in route.points:
            key = point_key(point)
            existing = self._find_entry(key)
            if existing is not None:
                # Replace the payload with an enlarged crossover set.
                self.tree.remove(key, match=lambda e: e is existing)
                new_ids = frozenset(set(existing.payload) | {route.route_id})
                self.tree.insert(RTreeEntry(key, new_ids))
            else:
                self.tree.insert(RTreeEntry(key, frozenset({route.route_id})))
            self.plist.add(point, route.route_id)

    def remove_route(self, route: Route) -> None:
        """Remove a route's points from the index."""
        self.version += 1
        for point in route.points:
            key = point_key(point)
            existing = self._find_entry(key)
            if existing is None:
                continue
            remaining = set(existing.payload) - {route.route_id}
            self.tree.remove(key, match=lambda e: e is existing)
            if remaining:
                self.tree.insert(RTreeEntry(key, frozenset(remaining)))
            self.plist.discard(point, route.route_id)

    def _find_entry(self, key: Tuple[float, float]) -> Optional[RTreeEntry]:
        box = BoundingBox.from_point(key)
        for entry in self.tree.range_search(box):
            if entry.point == key:
                return entry
        return None

    # ------------------------------------------------------------------
    # Columnar boundary (pickling + store packing)
    # ------------------------------------------------------------------
    def to_columns(self):
        """This index as packed columns (``RouteIndexColumns``), cached.

        The cache key is ``(index version, dataset version)``: any dynamic
        update invalidates it, and reseeds of an unchanged index encode
        exactly once.
        """
        from repro.engine.columnar import encode_route_index

        lazy = self.__dict__.get("_lazy_columns")
        if lazy is not None:
            # Store-backed and still unmaterialised: nothing can have
            # mutated, so the store's own columns are current by definition.
            return lazy
        key = (self.version, self.routes.version)
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        columns = encode_route_index(self)
        self._columns_cache = (key, columns)
        return columns

    @classmethod
    @paused_gc
    def from_columns(cls, columns) -> "RouteIndex":
        """Rebuild an index from packed columns (no STR re-packing).

        The decoded tree is structure-identical to the encoded one (see
        :func:`repro.engine.columnar.decode_tree`), the PList stays in
        columnar mode until first mutation, and every node carries its
        packed NList union — the verification shortcut reads those id
        arrays directly.
        """
        from repro.engine.columnar import decode_routes, decode_tree, install_nlist

        index = cls.__new__(cls)
        index.routes = decode_routes(columns.routes)
        index.max_entries = columns.max_entries
        index._excluded = set(columns.excluded)
        index.plist = PointList.from_columns(columns.plist)
        index.tree = decode_tree(columns.tree)
        install_nlist(index.tree, columns.nlist)
        index.version = columns.version
        index._columns_cache = ((columns.version, index.routes.version), columns)
        return index

    @classmethod
    def from_store(cls, columns) -> "RouteIndex":
        """Build an index over store-backed columns, installing them lazily.

        O(1) in dataset size: only scalars are read here.  ``routes``,
        ``plist`` and ``tree`` stay un-decoded until first touched (see
        :meth:`__getattr__`), so a worker booting from a
        :class:`~repro.engine.store.StoreHandle` attaches in constant time
        and the OS pages column bytes in on demand.
        """
        index = cls.__new__(cls)
        index.max_entries = columns.max_entries
        index._excluded = set(columns.excluded)
        index.version = columns.version
        index._columns_cache = ((columns.version, columns.routes.version), columns)
        index._lazy_columns = columns
        return index

    def __getattr__(self, name):
        # Only reached when an attribute is missing: a store-backed index
        # (from_store) defers decoding routes/plist/tree until first use.
        if name in ("routes", "plist", "tree"):
            if self.__dict__.get("_lazy_columns") is not None:
                self._materialise_columns()
                return self.__dict__[name]
        raise AttributeError(name)

    @paused_gc
    def _materialise_columns(self) -> None:
        from repro.engine.columnar import decode_routes, decode_tree, install_nlist

        columns = self.__dict__["_lazy_columns"]
        self.routes = decode_routes(columns.routes)
        self.plist = PointList.from_columns(columns.plist)
        tree = decode_tree(columns.tree)
        install_nlist(tree, columns.nlist)
        self.tree = tree
        self._lazy_columns = None

    def __getstate__(self):
        """Pickle as packed columns: the cached encoding *is* the payload."""
        return {"__columnar__": self.to_columns()}

    def __setstate__(self, state) -> None:
        rebuilt = type(self).from_columns(state["__columnar__"])
        self.__dict__.update(rebuilt.__dict__)

    # ------------------------------------------------------------------
    # Accessors used by the search algorithms
    # ------------------------------------------------------------------
    @property
    def root(self) -> RTreeNode:
        """Root of the RR-tree."""
        return self.tree.root

    @property
    def excluded_route_ids(self) -> FrozenSet[int]:
        """Route ids excluded from the index at construction time."""
        return frozenset(self._excluded)

    def crossover_routes(self, point: Sequence[float]) -> FrozenSet[int]:
        """Crossover route set ``C(r)`` of a route point (Definition 7)."""
        return self.plist.crossover_routes(point)

    def routes_in_node(self, node: RTreeNode) -> FrozenSet[int]:
        """NList lookup: route ids having at least one point inside ``node``."""
        return node.payload_union

    def route_points(self, route_id: int) -> Tuple[Tuple[float, float], ...]:
        """Point locations of a route (as indexed)."""
        return tuple(point_key(p) for p in self.routes.get(route_id).points)

    def distinct_point_count(self) -> int:
        """Number of distinct route-point locations in the RR-tree."""
        return len(self.tree)

    def __repr__(self) -> str:
        return (
            f"RouteIndex(routes={len(self.routes)}, "
            f"points={len(self.tree)}, excluded={len(self._excluded)})"
        )
