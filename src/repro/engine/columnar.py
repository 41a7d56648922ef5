"""Columnar dataset core: packed array encodings of the index structures.

The serving layer ships one pickled :class:`~repro.engine.context
.ExecutionContext` to every worker.  Before this module existed, that
pickle was an *object graph*: ``Route``/``Transition`` instances,
R-tree nodes, per-entry payload ``frozenset``\\ s, the PList dict of sets —
megabytes of Python object headers for what is, structurally, a handful of
flat arrays.  The columnar core re-encodes every dataset-sized structure
as a structure of arrays:

====================  =====================================================
structure             columns
====================  =====================================================
route dataset         route ids (i32) · point offsets (i32) · points (f64)
transition dataset    transition ids (i32) · endpoint coords (f64)
R-tree (RR and TR)    preorder child counts + leaf flags (i32) · leaf
                      entry points (f64) · payload offsets (i32) · payload
                      values (i32: route ids, or exactly one
                      ``(transition id, endpoint code)`` tag pair per entry)
PList                 point locations (f64, sorted lexicographically) ·
                      offsets (i32) · crossover route ids (i32, sorted)
NList                 per-node offsets (i32, preorder) · route ids (i32,
                      sorted)
====================  =====================================================

Every id column is **sorted**, so two encodings of the same logical state
are identical element-wise and the resulting pickles are byte-deterministic
across runs and interpreters — unlike hash-ordered ``set`` iteration, which
the columnar encoders replace everywhere.

Uses.  The indexes always pickle themselves through ``to_columns()`` /
``from_columns()`` (see :mod:`repro.index.route_index` /
:mod:`repro.index.transition_index`), which shrinks serving-pool reseed
payloads severalfold and makes the pickle identical under the ``fork`` and
``spawn`` start methods.  The persistent store (:mod:`repro.engine.store`)
writes the same columns to disk, and a store-booted worker reads NList
unions and PList crossover sets straight out of the mapped file through the
offset-table gather / sorted-membership kernels in
:mod:`repro.geometry.kernels`.

Determinism.  Decoding reproduces the exact tree *structure* (preorder
child counts drive the rebuild), the exact entry coordinates, and the
exact payload sets, so a decoded index answers every query identically to
an index built from the datasets — the differential tests in
``tests/test_columnar.py`` assert this per method × semantics × backend.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox
from repro.index.rtree import RTree, RTreeEntry, RTreeNode
from repro.index.transition_index import DESTINATION, ORIGIN, TransitionEntry
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

#: Payload kinds of :class:`TreeColumns`.
PAYLOAD_ROUTE = "route"  # RR-tree: payload = set of route ids
PAYLOAD_TAG = "tag"  # TR-tree: payload = one (transition id, endpoint) tag

#: Endpoint labels as int32 codes (tag pairs are ``(transition_id, code)``).
_ENDPOINT_CODE = {ORIGIN: 0, DESTINATION: 1}
_ENDPOINT_LABEL = {0: ORIGIN, 1: DESTINATION}


def walk_nodes(tree: RTree) -> Iterator[RTreeNode]:
    """Deterministic preorder over a tree's nodes.

    Identical on both sides of a pickle *and* of a columnar decode (the
    decoder rebuilds the exact structure), which is what lets the NList
    columns be addressed positionally, without any per-node metadata.
    """
    stack: List[RTreeNode] = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(reversed(node.children))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# R-tree structure + leaf payloads
# ----------------------------------------------------------------------
@dataclass(eq=False)
class TreeColumns:
    """One R-tree as packed columns (structure, entry points, payloads).

    ``child_counts``/``leaf_flags`` are per node in preorder;
    ``entry_points`` holds the leaf-entry coordinates in the same preorder;
    ``payload_offsets`` is an offset table over ``payload_values`` with one
    row per leaf entry (values are route ids for ``payload_kind="route"``,
    exactly one ``(transition_id, endpoint_code)`` pair for ``"tag"``).
    ``track_payload_union`` is only ever honoured for route payloads: a
    TR-tree decodes without unions even from columns packed by older code
    that recorded ``True``.
    """

    payload_kind: str
    max_entries: int
    min_entries: int
    track_payload_union: bool
    size: int
    child_counts: Any
    leaf_flags: Any
    entry_points: Any
    payload_offsets: Any
    payload_values: Any

    @property
    def node_count(self) -> int:
        return len(self.child_counts)

    @property
    def entry_count(self) -> int:
        return max(0, len(self.payload_offsets) - 1)


def _encode_route_payload(payload: Iterable[Any]) -> List[int]:
    return sorted(int(route_id) for route_id in payload)


def _decode_route_payloads(offsets: List[int], values: List[int]) -> List[Any]:
    return [
        frozenset(values[start:stop]) for start, stop in zip(offsets, offsets[1:])
    ]


def _encode_tag_payload(tag: TransitionEntry) -> List[int]:
    return [int(tag.transition_id), _ENDPOINT_CODE[tag.endpoint]]


def _decode_tag_payloads(offsets: List[int], values: List[int]) -> List[Any]:
    """Every row's tag, with all rows validated before the first is built.

    Each row holds exactly one ``(transition id, endpoint code)`` pair, so
    the only valid offset table is ``0, 2, 4, ...`` over ``2 × rows``
    values; one list comparison checks that, and only a failing table is
    scanned for its first bad row.
    """
    rows = len(offsets) - 1
    if offsets != list(range(0, 2 * rows + 1, 2)) or len(values) != 2 * rows:
        for start, stop in zip(offsets, offsets[1:]):
            if stop - start != 2:
                raise ValueError(
                    "a TR-tree tag row holds one (transition id, endpoint code) "
                    f"pair, got {stop - start} values"
                )
        raise ValueError(
            f"tree columns are inconsistent: {rows} tag rows over "
            f"{len(values)} values"
        )
    codes = values[1::2]
    unknown = set(codes).difference(_ENDPOINT_LABEL)
    if unknown:
        code = next(code for code in codes if code in unknown)
        raise ValueError(f"unknown endpoint code {code!r}")
    # The labels are checked above, so skip TransitionEntry's own check.
    tag = functools.partial(tuple.__new__, TransitionEntry)
    return list(map(tag, zip(values[0::2], map(_ENDPOINT_LABEL.__getitem__, codes))))


_PAYLOAD_CODECS = {
    PAYLOAD_ROUTE: (_encode_route_payload, _decode_route_payloads),
    PAYLOAD_TAG: (_encode_tag_payload, _decode_tag_payloads),
}


def encode_tree(tree: RTree, payload_kind: str) -> TreeColumns:
    """Pack an R-tree into :class:`TreeColumns` (preorder, leaf entries)."""
    encoder, _ = _PAYLOAD_CODECS[payload_kind]
    child_counts: List[int] = []
    leaf_flags: List[int] = []
    entry_points: List[Tuple[float, float]] = []
    payload_offsets: List[int] = [0]
    payload_values: List[int] = []
    for node in walk_nodes(tree):
        child_counts.append(len(node.children))
        leaf_flags.append(1 if node.is_leaf else 0)
        if node.is_leaf:
            for entry in node.children:
                assert isinstance(entry, RTreeEntry)
                entry_points.append(entry.point)
                payload_values.extend(encoder(entry.payload))
                payload_offsets.append(len(payload_values))
    return TreeColumns(
        payload_kind=payload_kind,
        max_entries=tree.max_entries,
        min_entries=tree.min_entries,
        track_payload_union=tree.track_payload_union,
        size=len(tree),
        child_counts=kernels.pack_i32(child_counts),
        leaf_flags=kernels.pack_i32(leaf_flags),
        entry_points=kernels.pack_points(entry_points),
        payload_offsets=kernels.pack_i32(payload_offsets),
        payload_values=kernels.pack_i32(payload_values),
    )


def decode_tree(columns: TreeColumns) -> RTree:
    """Rebuild an R-tree from :class:`TreeColumns`.

    The reconstruction is structure-exact: the preorder child counts drive
    the same depth-first, left-to-right build that :func:`walk_nodes`
    enumerates, so node ``i`` of the decoded tree is node ``i`` of the
    encoded one.  Bounding boxes and packed child boxes are then installed
    one level at a time, bottom-up, from the same coordinates (see
    :func:`_install_level_boxes`), which also checks that every leaf sits
    at the deepest level, so ``leaf_count`` is that level's width; payload
    unions are left lazy (see
    :attr:`repro.index.rtree.RTreeNode.payload_union`) so a decode costs no
    set-building up front.  Each column is turned into a Python list once
    (:func:`~repro.geometry.kernels.id_list`): indexing a list per entry is
    several times cheaper than indexing numpy.  Every leaf entry is made
    once, in preorder, before the walk (the payloads one column at a time),
    and each leaf takes its run of them as a slice.
    """
    _, decoder = _PAYLOAD_CODECS[columns.payload_kind]
    track_union = (
        columns.track_payload_union and columns.payload_kind == PAYLOAD_ROUTE
    )
    tree = RTree(
        max_entries=columns.max_entries,
        min_entries=columns.min_entries,
        track_payload_union=track_union,
    )
    tree._size = columns.size
    child_counts = kernels.id_list(columns.child_counts)
    leaf_flags = kernels.id_list(columns.leaf_flags)
    points = kernels.id_list(columns.entry_points)
    payloads = decoder(
        kernels.id_list(columns.payload_offsets),
        kernels.id_list(columns.payload_values),
    )
    if len(points) != len(payloads):
        raise ValueError(
            f"tree columns are inconsistent: {len(points)} entry points, "
            f"{len(payloads)} payload rows"
        )
    new = RTreeEntry.__new__
    entries: List[RTreeEntry] = []
    for point, payload in zip(points, payloads):
        entry = new(RTreeEntry)
        entry.point = tuple(point)  # float64 rows: already (x, y) floats
        entry.payload = payload
        entries.append(entry)
    levels: List[List[RTreeNode]] = []
    next_node = 0
    next_entry = 0

    def build(depth: int) -> RTreeNode:
        nonlocal next_node, next_entry
        index = next_node
        next_node += 1
        node = RTreeNode(is_leaf=bool(leaf_flags[index]))
        if depth == len(levels):
            levels.append([])
        levels[depth].append(node)
        count = child_counts[index]
        if node.is_leaf:
            node.children = entries[next_entry : next_entry + count]
            next_entry += count
        else:
            node.children = [build(depth + 1) for _ in range(count)]
        if track_union:
            node._payload_union = None  # materialised lazily on first read
        return node

    root = build(0)
    if next_node != columns.node_count or next_entry != columns.entry_count:
        raise ValueError(
            f"tree columns are inconsistent: decoded {next_node} nodes / "
            f"{next_entry} entries, encoded {columns.node_count} / "
            f"{columns.entry_count}"
        )
    _install_level_boxes(levels, columns.entry_points)
    tree.root = root
    tree.leaf_count = len(levels[-1])
    return tree


def _install_level_boxes(levels: List[List[RTreeNode]], entry_points) -> None:
    """Give every node its box and its packed child boxes, one level at a
    time.

    ``levels`` holds the nodes by depth, each in preorder, so the children
    of one level's nodes are consecutive runs of the next level down (and
    the leaves' entries consecutive runs of ``entry_points``).  Each level
    is one :func:`~repro.geometry.kernels.group_boxes` call over its
    children's packed boxes, and every node keeps its run as its packed
    child boxes.  An R-tree keeps all leaves at one depth and no empty node
    below the root, and columns that break either are rejected.
    """
    if len(levels) == 1 and not levels[0][0].children:
        return  # the empty tree: a childless root leaf, no box
    child_boxes = kernels.point_boxes(entry_points)
    for depth in reversed(range(len(levels))):
        level = levels[depth]
        counts = [len(node.children) for node in level]
        if 0 in counts or any(
            node.is_leaf != (depth == len(levels) - 1) for node in level
        ):
            raise ValueError(
                "tree columns are inconsistent: an empty node, or leaves "
                "at more than one depth"
            )
        starts = list(itertools.accumulate(counts, initial=0))
        boxes = kernels.group_boxes(child_boxes, starts[:-1])
        for node, box, start, stop in zip(
            level, kernels.id_list(boxes), starts, starts[1:]
        ):
            node.bbox = BoundingBox(*box)
            node.packed_boxes = child_boxes[start:stop]
        child_boxes = boxes


# ----------------------------------------------------------------------
# PList (point location -> crossover route ids)
# ----------------------------------------------------------------------
@dataclass(eq=False)
class PListColumns:
    """The PList as sorted packed columns, readable without a dict.

    ``points`` is sorted lexicographically by ``(x, y)`` so lookups are a
    binary search (:func:`repro.geometry.kernels.lex_search_point`);
    ``route_ids`` holds each point's crossover set, sorted, addressed
    through ``offsets``.  A store-booted worker holds these as read-only
    views of the mapped store file.
    """

    points: Any
    offsets: Any
    route_ids: Any

    def __len__(self) -> int:
        return max(0, len(self.offsets) - 1)

    def row_of(self, key: Sequence[float]) -> int:
        return kernels.lex_search_point(self.points, float(key[0]), float(key[1]))

    def ids_at(self, row: int):
        return kernels.gather_row(self.route_ids, self.offsets, row)

    def crossover(self, key: Sequence[float]) -> frozenset:
        row = self.row_of(key)
        if row < 0:
            return frozenset()
        return frozenset(kernels.id_list(self.ids_at(row)))

    def degree(self, key: Sequence[float]) -> int:
        row = self.row_of(key)
        if row < 0:
            return 0
        return int(self.offsets[row + 1]) - int(self.offsets[row])

    def contains(self, key: Sequence[float]) -> bool:
        return self.row_of(key) >= 0

    def keys(self) -> Iterator[Tuple[float, float]]:
        for row in range(len(self)):
            point = self.points[row]
            yield (float(point[0]), float(point[1]))

    def items(self) -> Iterator[Tuple[Tuple[float, float], List[int]]]:
        for row in range(len(self)):
            point = self.points[row]
            key = (float(point[0]), float(point[1]))
            yield key, kernels.id_list(self.ids_at(row))


def encode_plist(
    sorted_items: Sequence[Tuple[Tuple[float, float], Sequence[int]]]
) -> PListColumns:
    """Pack ``(point, sorted route ids)`` items (pre-sorted by point)."""
    points: List[Tuple[float, float]] = []
    offsets: List[int] = [0]
    route_ids: List[int] = []
    for key, ids in sorted_items:
        points.append(key)
        route_ids.extend(int(route_id) for route_id in ids)
        offsets.append(len(route_ids))
    return PListColumns(
        points=kernels.pack_points(points),
        offsets=kernels.pack_i32(offsets),
        route_ids=kernels.pack_i32(route_ids),
    )


# ----------------------------------------------------------------------
# NList (per RR-tree node route-id unions)
# ----------------------------------------------------------------------
@dataclass(eq=False)
class NListColumns:
    """Per-node route-id unions, addressed by preorder node position."""

    offsets: Any
    route_ids: Any

    @property
    def node_count(self) -> int:
        return max(0, len(self.offsets) - 1)


def encode_nlist(tree: RTree) -> NListColumns:
    """Pack every node's payload union (sorted) in preorder."""
    offsets: List[int] = [0]
    route_ids: List[int] = []
    for node in walk_nodes(tree):
        route_ids.extend(sorted(int(route_id) for route_id in node.payload_union))
        offsets.append(len(route_ids))
    return NListColumns(
        offsets=kernels.pack_i32(offsets), route_ids=kernels.pack_i32(route_ids)
    )


def install_nlist(tree: RTree, columns: NListColumns) -> None:
    """Install NList columns as per-node ``packed_union`` slices.

    Raises when the column shape does not match the tree's preorder walk —
    callers treat that as "no columns" and keep the lazily-built unions,
    never wrong ones.  Validation runs *before* the first node is touched
    (two cheap walks), so a rejected install leaves the tree unchanged and
    a worker that falls back never serves from half-installed columns.
    """
    count = sum(1 for _ in walk_nodes(tree))
    if count != columns.node_count:
        raise ValueError(
            f"NList columns cover {columns.node_count} nodes, "
            f"but the tree has {count}"
        )
    for index, node in enumerate(walk_nodes(tree)):
        node.packed_union = kernels.gather_row(
            columns.route_ids, columns.offsets, index
        )


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------
@dataclass(eq=False)
class RouteColumns:
    """A :class:`~repro.model.dataset.RouteDataset` as packed columns."""

    ids: Any
    offsets: Any
    points: Any
    names: Tuple[Optional[str], ...]
    version: int


def encode_routes(dataset: RouteDataset) -> RouteColumns:
    ids: List[int] = []
    offsets: List[int] = [0]
    flat: List[Tuple[float, float]] = []
    names: List[Optional[str]] = []
    for route in dataset:
        ids.append(route.route_id)
        names.append(route.name)
        flat.extend((point.x, point.y) for point in route.points)
        offsets.append(len(flat))
    return RouteColumns(
        ids=kernels.pack_i32(ids),
        offsets=kernels.pack_i32(offsets),
        points=kernels.pack_points(flat),
        names=tuple(names),
        version=dataset.version,
    )


def decode_routes(columns: RouteColumns) -> RouteDataset:
    dataset = RouteDataset()
    offsets = kernels.id_list(columns.offsets)
    points = kernels.id_list(columns.points)
    for index, route_id in enumerate(kernels.id_list(columns.ids)):
        dataset.add(
            Route(
                route_id,
                points[offsets[index] : offsets[index + 1]],
                name=columns.names[index],
            )
        )
    dataset.version = columns.version
    return dataset


@dataclass(eq=False)
class TransitionColumns:
    """A :class:`~repro.model.dataset.TransitionDataset` as packed columns."""

    ids: Any
    coords: Any  # (T, 4) float64: origin x, origin y, destination x, y
    timestamps: Tuple[Optional[float], ...]
    version: int


def encode_transitions(dataset: TransitionDataset) -> TransitionColumns:
    ids: List[int] = []
    coords: List[Tuple[float, float, float, float]] = []
    timestamps: List[Optional[float]] = []
    for transition in dataset:
        ids.append(transition.transition_id)
        coords.append(
            (
                transition.origin.x,
                transition.origin.y,
                transition.destination.x,
                transition.destination.y,
            )
        )
        timestamps.append(transition.timestamp)
    return TransitionColumns(
        ids=kernels.pack_i32(ids),
        coords=kernels.pack_boxes(coords),
        timestamps=tuple(timestamps),
        version=dataset.version,
    )


def decode_transitions(columns: TransitionColumns) -> TransitionDataset:
    dataset = TransitionDataset()
    for transition_id, row, timestamp in zip(
        kernels.id_list(columns.ids), kernels.id_list(columns.coords), columns.timestamps
    ):
        dataset.add(
            Transition(
                transition_id,
                (row[0], row[1]),
                (row[2], row[3]),
                timestamp=timestamp,
            )
        )
    dataset.version = columns.version
    return dataset


# ----------------------------------------------------------------------
# Whole indexes (the pickling boundary)
# ----------------------------------------------------------------------
@dataclass(eq=False)
class RouteIndexColumns:
    """Everything a :class:`~repro.index.route_index.RouteIndex` pickles."""

    routes: RouteColumns
    tree: TreeColumns
    plist: PListColumns
    nlist: NListColumns
    version: int
    max_entries: int
    excluded: Tuple[int, ...]


def encode_route_index(index) -> RouteIndexColumns:
    return RouteIndexColumns(
        routes=encode_routes(index.routes),
        tree=encode_tree(index.tree, PAYLOAD_ROUTE),
        plist=index.plist.to_columns(),
        nlist=encode_nlist(index.tree),
        version=index.version,
        max_entries=index.max_entries,
        excluded=tuple(sorted(index.excluded_route_ids)),
    )


@dataclass(eq=False)
class TransitionIndexColumns:
    """Everything a :class:`~repro.index.transition_index.TransitionIndex`
    pickles (listeners are process-local and never travel)."""

    transitions: TransitionColumns
    tree: TreeColumns
    version: int
    max_entries: int


def encode_transition_index(index) -> TransitionIndexColumns:
    return TransitionIndexColumns(
        transitions=encode_transitions(index.transitions),
        tree=encode_tree(index.tree, PAYLOAD_TAG),
        version=index.version,
        max_entries=index.max_entries,
    )
