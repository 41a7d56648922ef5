"""An in-memory R-tree for planar points.

The paper relies on two R-trees (the RR-tree over route points and the
TR-tree over transition points).  No external R-tree library is assumed, so
this module implements the classic structure from scratch:

* STR (Sort-Tile-Recursive) bulk loading for building an index over an
  existing dataset, one level at a time: the ordering and every node box
  come from :func:`repro.geometry.kernels.str_levels`, and each node gets
  its packed child boxes as a row slice of its level's array,
* structural insertion, so the TR-tree takes the paper's arriving
  transitions: the entry joins the leaf of least enlargement and the boxes
  on its path are recomputed.  No node is split or created.  Once that
  leaf holds ``2 * max_entries`` entries the tree is rebuilt by STR from
  its own entries, which leaves every leaf at most ``max_entries`` full
  again.  On the nyc×0.75 TR-tree (13,500 entries, ``max_entries`` 16,
  2 vCPU) under the serving benchmark's update stream, a transition
  arrival (two inserts) takes about 0.15 ms at the median, and a rebuild
  (about 12 ms) comes once per 650–1,000 arrivals,
* structural deletion: the entry is removed, the boxes on its root-to-leaf
  path are tightened, emptied nodes are unlinked and a one-child root is
  collapsed.  Nothing is re-inserted.  Once the average leaf fill drops
  below ``min_entries`` (``len(tree) < min_entries * leaf_count``) the tree
  is rebuilt by STR from its own entries.  On the same tree that first
  happens after 6,749 deletes and takes about 15 ms, 0.002 ms a delete
  amortised; a delete in between walks one path (about 0.03 ms at the
  median),
* best-first (MinDist ordered) nearest-neighbour traversal,
* an optional per-node union of entry payload sets, built with the tree,
  which the route index uses as the paper's ``NList``.  Such a tree is
  static: :meth:`RTree.insert` and :meth:`RTree.remove` refuse it, and the
  route index rebuilds it on every route update instead,
* :func:`paused_gc`, which the two index wrappers hold around every bulk
  build and columnar decode.

So only STR ever shapes a tree: an update changes which entries a leaf
holds and the boxes on its path (a delete also unlinks nodes it empties),
but never splits a node or creates one.  Both rebuild rules read only the
tree's shape, so copies of one tree that replay the same updates rebuild
at the same one.  Updates carry the root-to-leaf path with them, so nodes
keep no parent pointers and a tree holds no reference cycles.

Only point data is stored (every leaf entry is a degenerate rectangle), which
matches how the paper indexes routes and transitions.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import math
from typing import (
    Any,
    Callable,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox

__all__ = ["RTree", "RTreeNode", "RTreeEntry", "paused_gc"]


class RTreeEntry:
    """A leaf entry: a point plus an arbitrary payload.

    Attributes
    ----------
    point:
        The indexed ``(x, y)`` location.
    payload:
        Arbitrary application data.  When the owning tree is created with
        ``track_payload_union=True`` the payload must be a set-like of
        hashables (the RR-tree stores the set of route ids covering the
        point).
    """

    __slots__ = ("point", "payload")

    def __init__(self, point: Sequence[float], payload: Any):
        self.point = (float(point[0]), float(point[1]))
        self.payload = payload

    @property
    def bbox(self) -> BoundingBox:
        """Degenerate bounding box of the entry's point."""
        return BoundingBox.from_point(self.point)

    def __repr__(self) -> str:
        return f"RTreeEntry(point={self.point}, payload={self.payload!r})"


class RTreeNode:
    """An internal or leaf node of the R-tree."""

    __slots__ = (
        "is_leaf",
        "children",
        "bbox",
        "_payload_union",
        "packed_boxes",
        "packed_union",
    )

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        # Children are RTreeEntry for leaves, RTreeNode for internal nodes.
        self.children: List[Union["RTreeNode", RTreeEntry]] = []
        self.bbox: Optional[BoundingBox] = None
        # Union of the payload sets of every entry below this node (NList).
        # ``None`` means "not materialised yet": trees decoded from columnar
        # pickles defer the frozenset build until someone actually reads it
        # (see the ``payload_union`` property).
        self._payload_union: Optional[FrozenSet[Any]] = frozenset()
        #: Packed array of :meth:`child_box_tuples` (see
        #: :meth:`packed_child_boxes`).  Installed by bulk load and by the
        #: columnar decode as a row slice of the level's child-box array;
        #: dropped whenever the child set changes (every mutation path
        #: recomputes the bbox) and then rebuilt lazily on the next read.
        #: Derived state, never pickled.
        self.packed_boxes: Optional[Any] = None
        #: Lazily cached sorted int32 id column of :attr:`payload_union`
        #: (RR-tree nodes only — payloads must be integer route ids; see
        #: :meth:`union_ids`).  Derived and never pickled; a columnar decode
        #: installs it from the packed NList columns.
        self.packed_union: Optional[Any] = None

    # ------------------------------------------------------------------
    # Payload union (NList) views
    # ------------------------------------------------------------------
    @property
    def payload_union(self) -> FrozenSet[Any]:
        """Union of the payload sets of every entry below this node.

        Materialised lazily: trees rebuilt from columnar pickles leave it
        unset, and the first read either expands the packed NList column
        (when installed) or recurses into the children bottom-up.
        """
        union = self._payload_union
        if union is None:
            packed = self.packed_union
            if packed is not None:
                union = frozenset(kernels.id_list(packed))
            else:
                union = self._merged_child_union()
            self._payload_union = union
        return union

    def _merged_child_union(self) -> FrozenSet[Any]:
        """Union of the direct children's payloads (one level, not cached)."""
        merged: Set[Any] = set()
        if self.is_leaf:
            for child in self.children:
                merged.update(child.payload)  # type: ignore[union-attr]
        else:
            for child in self.children:
                merged.update(child.payload_union)  # type: ignore[union-attr]
        return frozenset(merged)

    def union_ids(self):
        """:attr:`payload_union` as a sorted packed int32 id column.

        Only meaningful for trees whose payloads are integer ids (the
        RR-tree); the verification NList shortcut reads this column instead
        of the frozenset so that store-booted indexes read the mapped NList
        column directly and id iteration order is always sorted.
        """
        packed = self.packed_union
        if packed is None:
            packed = kernels.pack_i32(sorted(self.payload_union))
            self.packed_union = packed
        return packed

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle everything but the derived packed-box cache.

        The cache may hold numpy arrays; a receiver repacks its own.
        """
        return (
            self.is_leaf,
            self.children,
            self.bbox,
            self.payload_union,
        )

    def __setstate__(self, state) -> None:
        (
            self.is_leaf,
            self.children,
            self.bbox,
            self._payload_union,
        ) = state
        self.packed_boxes = None
        self.packed_union = None

    # ------------------------------------------------------------------
    # Maintenance helpers
    # ------------------------------------------------------------------
    def recompute_bbox(self) -> None:
        """Recompute this node's bounding box from its children."""
        # Every mutation that touches the child set runs through here (or
        # through an STR rebuild, which installs fresh nodes), so this is
        # the single invalidation point of the packed-box cache.
        self.packed_boxes = None
        if not self.children:
            self.bbox = None
            return
        if self.is_leaf:
            self.bbox = BoundingBox.from_points(
                child.point for child in self.children  # type: ignore[union-attr]
            )
        else:
            self.bbox = BoundingBox.union_all(
                child.bbox for child in self.children  # type: ignore[union-attr]
            )

    def recompute_payload_union(self) -> None:
        """Compute the union of payload sets of the subtree (one level)."""
        self._payload_union = self._merged_child_union()

    def entries(self) -> Iterator[RTreeEntry]:
        """Iterate every leaf entry below this node (depth-first)."""
        if self.is_leaf:
            yield from self.children  # type: ignore[misc]
        else:
            for child in self.children:
                yield from child.entries()  # type: ignore[union-attr]

    def child_box_tuples(self) -> List[Tuple[float, float, float, float]]:
        """Bounding boxes of the direct children as plain tuples.

        Leaf entries contribute degenerate boxes.  This is the block view the
        batched execution engine hands to the vectorized geometry kernels so
        that one call prunes (or orders) every child of a node at once.
        """
        boxes: List[Tuple[float, float, float, float]] = []
        for child in self.children:
            if isinstance(child, RTreeNode):
                assert child.bbox is not None
                boxes.append(child.bbox.as_tuple())
            else:
                x, y = child.point
                boxes.append((x, y, x, y))
        return boxes

    def packed_child_boxes(self):
        """:meth:`child_box_tuples` packed for the vectorized kernels, cached.

        The batched execution engine scores / filter-tests all children of a
        node per kernel call, so the packed array (``kernels.pack_boxes``
        layout) lives on the node.  Bulk load and decode install it; after a
        mutation drops it, the first read here packs it.
        """
        cached = self.packed_boxes
        if cached is None:
            cached = kernels.pack_boxes(self.child_box_tuples())
            self.packed_boxes = cached
        return cached

    def leaf_point_tuples(self) -> List[Tuple[float, float]]:
        """Points of the direct leaf entries (leaf nodes only)."""
        assert self.is_leaf
        return [child.point for child in self.children]  # type: ignore[union-attr]

    def height(self) -> int:
        """Height of the subtree rooted at this node (leaf = 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(child.height() for child in self.children)  # type: ignore[union-attr]

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"RTreeNode({kind}, children={len(self.children)})"


_Func = TypeVar("_Func", bound=Callable[..., Any])


def paused_gc(func: _Func) -> _Func:
    """Run ``func`` with the cyclic garbage collector paused.

    Collections fire on container-allocation counts, so building tens of
    thousands of entries, tags and nodes sets off a collection every few
    hundred allocations, each one scanning the growing tree, and none of
    those containers is garbage yet.  The index wrappers put this on every
    bulk build and columnar decode.  When the caller has already disabled
    the collector it does nothing (and leaves it disabled), so pauses nest.
    The count of objects allocated during the pause carries over: the first
    container allocated after it sets off one generation-0 pass.
    """

    @functools.wraps(func)
    def paused(*args: Any, **kwargs: Any) -> Any:
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return cast(_Func, paused)


class RTree:
    """R-tree over planar points: STR bulk load, and structural inserts and
    deletes that rebuild the tree by STR instead of splitting or merging
    nodes.

    Parameters
    ----------
    max_entries:
        Fanout of an STR-packed node.  Internal nodes never exceed it; an
        insert that fills a leaf to ``2 * max_entries`` entries rebuilds
        the tree.
    min_entries:
        The average leaf fill below which a delete rebuilds the tree;
        defaults to ``max_entries // 2``.
    track_payload_union:
        When True every node keeps ``payload_union``: the union of the
        payload sets of all entries in its subtree (the paper's ``NList``).
        Payloads must then be iterables of hashables, and the tree is
        static (build it with :meth:`bulk_load`).
    """

    def __init__(
        self,
        max_entries: int = 16,
        min_entries: Optional[int] = None,
        track_payload_union: bool = False,
    ):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(2, max_entries // 2)
        )
        if self.min_entries * 2 > self.max_entries:
            raise ValueError(
                "min_entries must not exceed half of max_entries "
                f"(got {self.min_entries} vs {self.max_entries})"
            )
        self.track_payload_union = track_payload_union
        self.root = RTreeNode(is_leaf=True)
        self._size = 0
        #: Number of leaf nodes (an empty tree is one empty leaf).  Set by
        #: bulk load and decode, kept by unlinks; the rebuild rule of
        #: :meth:`remove` reads it.
        self.leaf_count = 1

    # ------------------------------------------------------------------
    # Size / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        # An empty tree is falsy; avoids surprising `if tree:` behaviour.
        return self._size > 0

    def entries(self) -> Iterator[RTreeEntry]:
        """Iterate over every leaf entry in the tree."""
        if self._size:
            yield from self.root.entries()

    @property
    def bbox(self) -> Optional[BoundingBox]:
        """Bounding box of the whole tree (None when empty)."""
        return self.root.bbox

    def height(self) -> int:
        """Height of the tree (1 for a tree that is a single leaf)."""
        return self.root.height()

    # ------------------------------------------------------------------
    # Bulk loading (STR)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        entries: Iterable[RTreeEntry],
        max_entries: int = 16,
        min_entries: Optional[int] = None,
        track_payload_union: bool = False,
    ) -> "RTree":
        """Build a tree over ``entries`` using Sort-Tile-Recursive packing.

        STR produces well-filled, square-ish nodes which keeps MinDist bounds
        tight; it is the standard way to build an R-tree over a known dataset.
        The entries themselves become the leaves, in STR order.
        """
        tree = cls(
            max_entries=max_entries,
            min_entries=min_entries,
            track_payload_union=track_payload_union,
        )
        tree._load(list(entries))
        return tree

    @classmethod
    def bulk_load_points(
        cls,
        points: Sequence[Sequence[float]],
        payloads: Sequence[Any],
        max_entries: int = 16,
        min_entries: Optional[int] = None,
        track_payload_union: bool = False,
    ) -> "RTree":
        """:meth:`bulk_load` over parallel ``points`` / ``payloads`` columns.

        The leaf entries are created once, already in STR order, with plain
        ``(x, y)`` float tuples as points.
        """
        tree = cls(
            max_entries=max_entries,
            min_entries=min_entries,
            track_payload_union=track_payload_union,
        )
        levels = kernels.str_levels(points, tree.max_entries)
        if not levels:
            return tree
        new = RTreeEntry.__new__
        entries = []
        for index in levels[0][0]:
            point = points[index]
            entry = new(RTreeEntry)
            # float() hands back a float argument itself, so entries share
            # the caller's coordinate objects instead of copying them.
            entry.point = (float(point[0]), float(point[1]))
            entry.payload = payloads[index]
            entries.append(entry)
        tree._assemble(levels, entries)
        return tree

    def _load(self, entries: List[RTreeEntry]) -> None:
        """STR-pack ``entries`` into this tree (a no-op for none)."""
        levels = kernels.str_levels([entry.point for entry in entries], self.max_entries)
        if levels:
            self._assemble(levels, [entries[i] for i in levels[0][0]])

    def _assemble(self, levels, entries: List[RTreeEntry]) -> None:
        """Install :func:`~repro.geometry.kernels.str_levels` output as nodes.

        ``entries`` are the leaf entries in leaf-level order.  Every node
        gets its box and its packed child boxes (a row slice of the level's
        ``child_boxes``) here, so no node is boxed or packed one at a time.
        """
        capacity = self.max_entries
        children: List[Any] = entries
        is_leaf = True
        for order, child_boxes, node_boxes in levels:
            if not is_leaf:
                children = [children[i] for i in order]
            nodes = []
            for start, box in zip(range(0, len(children), capacity), node_boxes):
                node = RTreeNode(is_leaf=is_leaf)
                node.children = children[start : start + capacity]
                node.bbox = BoundingBox(*box)
                node.packed_boxes = child_boxes[start : start + capacity]
                if self.track_payload_union:
                    node.recompute_payload_union()
                nodes.append(node)
            if is_leaf:
                self.leaf_count = len(nodes)
            children = nodes
            is_leaf = False
        self.root = children[0]
        self._size = len(entries)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, entry: RTreeEntry) -> None:
        """Insert a single leaf entry.

        The entry joins the leaf of least enlargement (:meth:`_choose_path`)
        and the boxes on that leaf's path are recomputed; no node is split
        or created.  When that leaf reaches ``2 * max_entries`` entries, the
        tree is rebuilt by STR from its own entries instead.  Raises
        ``ValueError`` on a tree that tracks payload unions.
        """
        self._check_mutable()
        path = self._choose_path(entry)
        leaf = path[-1]
        leaf.children.append(entry)
        self._size += 1
        if len(leaf.children) >= 2 * self.max_entries:
            self._rebuild()
            return
        for node in reversed(path):
            node.recompute_bbox()

    def _rebuild(self) -> None:
        """Re-pack this tree by STR from its own entries."""
        self._load(list(self.entries()))

    def _check_mutable(self) -> None:
        if self.track_payload_union:
            raise ValueError(
                "a tree that tracks payload unions is static; "
                "bulk-load a new one instead of updating it"
            )

    def _choose_path(self, entry: RTreeEntry) -> List[RTreeNode]:
        """Root-to-leaf path of least enlargement (ties: least area)."""
        node = self.root
        path = [node]
        entry_box = entry.bbox
        while not node.is_leaf:
            best_child = None
            best_enlargement = math.inf
            best_area = math.inf
            for child in node.children:
                assert isinstance(child, RTreeNode)
                enlargement = child.bbox.enlargement(entry_box)
                area = child.bbox.area
                if enlargement < best_enlargement or (
                    enlargement == best_enlargement and area < best_area
                ):
                    best_child = child
                    best_enlargement = enlargement
                    best_area = area
            assert best_child is not None
            node = best_child
            path.append(node)
        return path

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def remove(
        self,
        point: Sequence[float],
        match: Optional[Callable[[RTreeEntry], bool]] = None,
    ) -> Optional[RTreeEntry]:
        """Remove one entry located at ``point``.

        The boxes on the entry's root-to-leaf path are tightened, nodes left
        empty are unlinked and a root with one child is replaced by it; no
        entry is re-inserted, so under-full nodes stay.  When the average
        leaf fill then drops below ``min_entries`` (``len(self) <
        min_entries * leaf_count``), the tree is rebuilt by STR from its own
        entries.  Raises ``ValueError`` on a tree that tracks payload unions.

        Parameters
        ----------
        point:
            The exact location of the entry to remove.
        match:
            Optional predicate narrowing which entry at that location to
            remove (e.g. match on payload).  The first matching entry found
            is removed.

        Returns
        -------
        The removed entry, or ``None`` if no entry matched.
        """
        self._check_mutable()
        target = (float(point[0]), float(point[1]))
        path: List[RTreeNode] = []
        entry = self._find_path(self.root, target, match, path)
        if entry is None:
            return None
        path[-1].children.remove(entry)
        self._size -= 1
        for depth in reversed(range(1, len(path))):
            node = path[depth]
            if node.children:
                node.recompute_bbox()
            else:
                path[depth - 1].children.remove(node)
                if node.is_leaf:
                    self.leaf_count -= 1
        root = self.root
        root.recompute_bbox()
        while not root.is_leaf and len(root.children) == 1:
            root = root.children[0]  # type: ignore[assignment]
        self.root = root
        if self._size < self.min_entries * self.leaf_count:
            self._rebuild()
        return entry

    def _find_path(
        self,
        node: RTreeNode,
        point: Tuple[float, float],
        match: Optional[Callable[[RTreeEntry], bool]],
        path: List[RTreeNode],
    ) -> Optional[RTreeEntry]:
        """The first entry at ``point`` that ``match`` accepts, depth-first.

        On success ``path`` holds the nodes from ``node`` down to the
        entry's leaf; on failure it is left as it was passed in.
        """
        if node.bbox is None or not node.bbox.contains_point(point):
            return None
        path.append(node)
        if node.is_leaf:
            for entry in node.children:
                assert isinstance(entry, RTreeEntry)
                if entry.point == point and (match is None or match(entry)):
                    return entry
        else:
            for child in node.children:
                assert isinstance(child, RTreeNode)
                found = self._find_path(child, point, match, path)
                if found is not None:
                    return found
        path.pop()
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def iter_nearest(
        self, point: Sequence[float]
    ) -> Iterator[Tuple[float, RTreeEntry]]:
        """Yield entries in increasing distance from ``point`` (best-first)."""
        if self._size == 0 or self.root.bbox is None:
            return
        counter = itertools.count()
        heap: List[Tuple[float, int, object]] = [
            (self.root.bbox.min_dist(point), next(counter), self.root)
        ]
        px, py = float(point[0]), float(point[1])
        while heap:
            distance, _, item = heapq.heappop(heap)
            if isinstance(item, RTreeEntry):
                yield distance, item
            else:
                assert isinstance(item, RTreeNode)
                if item.is_leaf:
                    for entry in item.children:
                        assert isinstance(entry, RTreeEntry)
                        d = math.hypot(entry.point[0] - px, entry.point[1] - py)
                        heapq.heappush(heap, (d, next(counter), entry))
                else:
                    for child in item.children:
                        assert isinstance(child, RTreeNode)
                        if child.bbox is None:
                            continue
                        heapq.heappush(
                            heap,
                            (child.bbox.min_dist(point), next(counter), child),
                        )

