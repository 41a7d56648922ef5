"""Persistent memory-mapped columnar store: O(1) cold start from one file.

The columnar dataset core (:mod:`repro.engine.columnar`) already packs
every dataset-sized structure into flat int32/float64 columns with offset
tables — but a cold start still pickle-decodes all of them, and a serving
reseed still ships the whole payload to every worker.  This module writes
those columns to a **single on-disk file** that loads by ``mmap``:

* :func:`save` serialises the existing ``to_columns()`` output
  (``RouteIndexColumns`` + ``TransitionIndexColumns``) into one file —
  magic + format version + checksummed header, a :class:`ColumnSpec`
  offset table, float64 regions before int32 regions so every view stays
  naturally aligned;
* :func:`open_store` maps the file read-only and exposes the columns as
  zero-copy numpy views over one ``mmap`` — no per-column copy, no
  decode.  Opening is O(1) in dataset size: the OS pages columns in on
  demand, which is also what lets datasets exceed RAM;
* :func:`attach_context` is the worker-side boot path: a reseed ships a
  tiny picklable :class:`StoreHandle` (path + layout + expected versions)
  instead of a columnar pickle, and the worker maps the file read-only and
  decodes nothing up front.

File layout (all little-endian)::

    ┌────────────────────────────────────────────────────────────┐
    │ preamble: magic (8s) · format version (u32) ·              │
    │           meta length (u32) · meta CRC32 (u32)             │
    │ meta: canonical JSON (sorted keys) — scalars, versions,    │
    │       and the ColumnSpec offset table                      │
    │ zero padding to the next 8-byte boundary                   │
    ├────────────────────────────────────────────────────────────┤
    │ float64 columns (route points, tree entry points, PList    │
    │ points, transition coords, timestamps) — 8-byte aligned    │
    │ int32 columns (ids, offset tables, tree structure, masks)  │
    │ uint8 columns (route-name bytes)                           │
    └────────────────────────────────────────────────────────────┘

Every float64 region holds whole 8-byte rows and the regions are packed
f64 → i32 → u8, so every view stays naturally aligned without per-column
padding.  The meta blob is canonical JSON (sorted keys, no whitespace)
and every id column is sorted, so the same logical dataset always
produces byte-identical files — ``tests/test_store.py`` asserts it.

Failure contract: every way a store can fail to write, open or validate
(missing file, truncated preamble, checksum mismatch, unsupported format
version, layout drift) raises a typed
:class:`~repro.engine.resilience.StoreError`, and callers degrade to the
columnar pickle path — identical answers, never a crash.  The
``store_attach`` injection point (:mod:`repro.engine.faults`) drives that
degradation deterministically in the chaos suite.

>>> from repro.engine.store import MAGIC, FORMAT_VERSION, ColumnSpec
>>> (len(MAGIC), FORMAT_VERSION)
(8, 1)
>>> ColumnSpec("plist_offsets", "i32", offset=128, rows=7).nbytes
28
>>> from repro.engine.resilience import StoreError, RkNNTError
>>> issubclass(StoreError, RkNNTError)
True
>>> StoreError("store attach failed").wire_code
'store_attach_failed'
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import faults
from repro.engine.columnar import (
    NListColumns,
    PListColumns,
    RouteColumns,
    RouteIndexColumns,
    TransitionColumns,
    TransitionIndexColumns,
    TreeColumns,
)
from repro.engine.resilience import StoreError
from repro.geometry import kernels

#: First 8 bytes of every store file (the trailing byte versions the
#: magic itself, so a future incompatible layout can change it).
MAGIC = b"RKNNTCS\x00"

#: On-disk format version.  Bump on any layout change; :func:`open_store`
#: rejects files written by a different version with a typed
#: :class:`~repro.engine.resilience.StoreError` (never a misread).
FORMAT_VERSION = 1

#: Preamble: magic, format version, meta length, meta CRC32 (little-endian).
_PREAMBLE = struct.Struct("<8sIII")

#: Data-region alignment: float64 views need 8-byte alignment.
ALIGNMENT = 8

#: Column kinds of the offset table.
KIND_F64 = "f64"
KIND_I32 = "i32"
KIND_U8 = "u8"

_ITEMSIZE = {KIND_F64: 8, KIND_I32: 4, KIND_U8: 1}


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass(frozen=True)
class ColumnSpec:
    """One column of the store: where it lives and how to view it.

    ``offset`` is relative to the start of the data region (which begins
    at the first 8-byte boundary after the meta blob).  ``cols`` is the
    row width of a float64 matrix column and ``0`` for flat i32/u8
    columns.
    """

    key: str
    kind: str
    offset: int
    rows: int
    cols: int = 0

    @property
    def nbytes(self) -> int:
        width = self.cols if self.cols else 1
        return self.rows * width * _ITEMSIZE[self.kind]

    def to_meta(self) -> List[Any]:
        return [self.key, self.kind, self.offset, self.rows, self.cols]

    @classmethod
    def from_meta(cls, row: Sequence[Any]) -> "ColumnSpec":
        key, kind, offset, rows, cols = row
        return cls(str(key), str(kind), int(offset), int(rows), int(cols))


@dataclass(frozen=True)
class StoreHandle:
    """Everything a reseed ships instead of a columnar pickle.

    A handle is a few hundred bytes regardless of dataset size — path,
    expected file size, the index versions the file was packed at, and
    the column offset table.  :func:`attach` re-reads the file's own
    (checksummed) header and cross-checks it against the handle, so a
    file that was rewritten, truncated or repacked since the handle was
    minted is rejected with a typed error instead of being misread.
    """

    path: str
    nbytes: int
    route_version: int
    transition_version: int
    columns: Tuple[ColumnSpec, ...]

    def matches(self, context) -> bool:
        """True while ``context``'s indexes are still at the packed
        versions — dynamic updates since the pack invalidate the file."""
        return (
            self.route_version == context.route_index.version
            and self.transition_version == context.transition_index.version
        )


# ----------------------------------------------------------------------
# Lazy metadata columns (names / timestamps)
# ----------------------------------------------------------------------
class _LazyNames:
    """Route names decoded per access from the packed u8/offset columns.

    Keeping names out of the JSON meta keeps :func:`open_store` O(1) in
    dataset size; consumers only ever index (``columns.names[i]``), and
    decoding happens when — and only when — the routes materialise.
    Pickles as a plain tuple, so a fallback reseed that re-pickles
    store-backed columns never drags a buffer view along.
    """

    __slots__ = ("_offsets", "_blob", "_mask")

    def __init__(self, offsets, blob, mask):
        self._offsets = offsets
        self._blob = blob
        self._mask = mask

    def __len__(self) -> int:
        return len(self._mask)

    def __getitem__(self, index: int) -> Optional[str]:
        if int(self._mask[index]) == 0:
            return None
        start = int(self._offsets[index])
        end = int(self._offsets[index + 1])
        return bytes(self._blob[start:end]).decode("utf-8")

    def __iter__(self):
        return (self[index] for index in range(len(self)))

    def __reduce__(self):
        return (tuple, (tuple(self),))


class _LazyTimestamps:
    """Transition timestamps decoded per access from the f64/mask columns."""

    __slots__ = ("_values", "_mask")

    def __init__(self, values, mask):
        self._values = values
        self._mask = mask

    def __len__(self) -> int:
        return len(self._mask)

    def __getitem__(self, index: int) -> Optional[float]:
        if int(self._mask[index]) == 0:
            return None
        return float(self._values[index][0])

    def __iter__(self):
        return (self[index] for index in range(len(self)))

    def __reduce__(self):
        return (tuple, (tuple(self),))


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def _column_arrays(
    routes: RouteIndexColumns, transitions: TransitionIndexColumns
) -> Tuple[List[Tuple[str, Any]], List[Tuple[str, Any]], List[Tuple[str, bytes]]]:
    """The store's columns in layout order: (f64, i32, u8) groups."""
    name_blob = bytearray()
    name_offsets: List[int] = [0]
    name_mask: List[int] = []
    for name in routes.routes.names:
        if name is not None:
            name_blob.extend(name.encode("utf-8"))
            name_mask.append(1)
        else:
            name_mask.append(0)
        name_offsets.append(len(name_blob))
    stamp_values: List[Tuple[float]] = []
    stamp_mask: List[int] = []
    for stamp in transitions.transitions.timestamps:
        stamp_values.append((float(stamp) if stamp is not None else 0.0,))
        stamp_mask.append(0 if stamp is None else 1)

    f64_columns = [
        ("route_points", routes.routes.points),
        ("rtree_entry_points", routes.tree.entry_points),
        ("plist_points", routes.plist.points),
        ("transition_coords", transitions.transitions.coords),
        ("ttree_entry_points", transitions.tree.entry_points),
        ("transition_timestamps", kernels.pack_points(stamp_values)),
    ]
    i32_columns = [
        ("route_ids", routes.routes.ids),
        ("route_offsets", routes.routes.offsets),
        ("route_name_offsets", kernels.pack_i32(name_offsets)),
        ("route_name_mask", kernels.pack_i32(name_mask)),
        ("rtree_child_counts", routes.tree.child_counts),
        ("rtree_leaf_flags", routes.tree.leaf_flags),
        ("rtree_payload_offsets", routes.tree.payload_offsets),
        ("rtree_payload_values", routes.tree.payload_values),
        ("plist_offsets", routes.plist.offsets),
        ("plist_route_ids", routes.plist.route_ids),
        ("nlist_offsets", routes.nlist.offsets),
        ("nlist_route_ids", routes.nlist.route_ids),
        ("transition_ids", transitions.transitions.ids),
        ("transition_timestamp_mask", kernels.pack_i32(stamp_mask)),
        ("ttree_child_counts", transitions.tree.child_counts),
        ("ttree_leaf_flags", transitions.tree.leaf_flags),
        ("ttree_payload_offsets", transitions.tree.payload_offsets),
        ("ttree_payload_values", transitions.tree.payload_values),
    ]
    u8_columns = [("route_name_bytes", bytes(name_blob))]
    return f64_columns, i32_columns, u8_columns


def _tree_meta(tree: TreeColumns) -> Dict[str, Any]:
    return {
        "payload_kind": tree.payload_kind,
        "max_entries": tree.max_entries,
        "min_entries": tree.min_entries,
        "track_payload_union": tree.track_payload_union,
        "size": tree.size,
    }


def save(
    path: str,
    routes: RouteIndexColumns,
    transitions: TransitionIndexColumns,
) -> StoreHandle:
    """Write both indexes' columns to ``path`` as one store file.

    The write is atomic (temp file + ``os.replace``) so a crashed pack
    never leaves a half-written store where a valid one stood, and the
    output is byte-deterministic: the same logical dataset produces the
    identical file on every run.  Returns the :class:`StoreHandle` a
    serving reseed ships.  Raises :class:`~repro.engine.resilience
    .StoreError` when the file cannot be written.
    """
    f64_columns, i32_columns, u8_columns = _column_arrays(routes, transitions)
    specs: List[ColumnSpec] = []
    blobs: List[bytes] = []
    offset = 0
    for key, array in f64_columns:
        rows, cols = array.shape
        specs.append(ColumnSpec(key, KIND_F64, offset, int(rows), int(cols)))
        blobs.append(array.tobytes())
        offset += len(blobs[-1])
    for key, array in i32_columns:
        specs.append(ColumnSpec(key, KIND_I32, offset, len(array)))
        blobs.append(array.tobytes())
        offset += len(blobs[-1])
    for key, blob in u8_columns:
        specs.append(ColumnSpec(key, KIND_U8, offset, len(blob)))
        blobs.append(blob)
        offset += len(blob)

    meta = {
        "route_index": {
            "version": routes.version,
            "max_entries": routes.max_entries,
            "excluded": list(routes.excluded),
            "dataset_version": routes.routes.version,
        },
        "rtree": _tree_meta(routes.tree),
        "transition_index": {
            "version": transitions.version,
            "max_entries": transitions.max_entries,
            "dataset_version": transitions.transitions.version,
        },
        "ttree": _tree_meta(transitions.tree),
        "columns": [spec.to_meta() for spec in specs],
    }
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    data_start = _align(_PREAMBLE.size + len(meta_blob))
    padding = b"\x00" * (data_start - _PREAMBLE.size - len(meta_blob))
    preamble = _PREAMBLE.pack(
        MAGIC, FORMAT_VERSION, len(meta_blob), zlib.crc32(meta_blob)
    )
    total = data_start + offset

    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, temp_path = tempfile.mkstemp(
            prefix=".store-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(preamble)
                handle.write(meta_blob)
                handle.write(padding)
                for blob in blobs:
                    handle.write(blob)
            os.replace(temp_path, path)
        except BaseException:
            os.unlink(temp_path)
            raise
    except OSError as exc:
        raise StoreError(
            "could not write store file", path=str(path)
        ) from exc
    return StoreHandle(
        path=os.path.abspath(path),
        nbytes=total,
        route_version=routes.version,
        transition_version=transitions.version,
        columns=tuple(specs),
    )


def save_indexes(path: str, route_index, transition_index) -> StoreHandle:
    """Pack two live indexes (via their cached ``to_columns()``) into a
    store file — the CLI ``pack`` command in library form."""
    return save(path, route_index.to_columns(), transition_index.to_columns())


# ----------------------------------------------------------------------
# Opening
# ----------------------------------------------------------------------
class Store:
    """An open store file: one read-only ``mmap`` plus zero-copy views.

    Column accessors return numpy views aliasing the mapping — no copy,
    read-only (a worker can never scribble over pages every other worker
    shares through the page cache).  The views keep the mapping alive, so
    indexes built over them may outlive the :class:`Store` object itself;
    :meth:`close` releases the mapping as soon as the last view dies.
    """

    def __init__(self, path: str, nbytes: int, meta: Dict[str, Any], mapping):
        self.path = path
        self.nbytes = nbytes
        self.meta = meta
        self._mmap = mapping
        self._data_start = meta.pop("__data_start__")
        self.columns: Dict[str, ColumnSpec] = {
            spec.key: spec
            for spec in (ColumnSpec.from_meta(row) for row in meta["columns"])
        }

    # -- raw views -----------------------------------------------------
    def _spec(self, key: str) -> ColumnSpec:
        spec = self.columns.get(key)
        if spec is None:
            raise StoreError("store file lacks a column", path=self.path, key=key)
        return spec

    def _f64(self, key: str):
        spec = self._spec(key)
        return kernels.view_f64(
            self._mmap, self._data_start + spec.offset, spec.rows, spec.cols
        )

    def _i32(self, key: str):
        spec = self._spec(key)
        return kernels.view_i32(self._mmap, self._data_start + spec.offset, spec.rows)

    def _u8(self, key: str):
        spec = self._spec(key)
        start = self._data_start + spec.offset
        return memoryview(self._mmap)[start : start + spec.rows]

    # -- assembled columns ---------------------------------------------
    def route_columns(self) -> RouteIndexColumns:
        """The RR-tree side as ``RouteIndexColumns`` over store views."""
        index_meta = self.meta["route_index"]
        return RouteIndexColumns(
            routes=RouteColumns(
                ids=self._i32("route_ids"),
                offsets=self._i32("route_offsets"),
                points=self._f64("route_points"),
                names=_LazyNames(  # type: ignore[arg-type]
                    self._i32("route_name_offsets"),
                    self._u8("route_name_bytes"),
                    self._i32("route_name_mask"),
                ),
                version=int(index_meta["dataset_version"]),
            ),
            tree=self._tree_columns("rtree", self.meta["rtree"]),
            plist=PListColumns(
                points=self._f64("plist_points"),
                offsets=self._i32("plist_offsets"),
                route_ids=self._i32("plist_route_ids"),
            ),
            nlist=NListColumns(
                offsets=self._i32("nlist_offsets"),
                route_ids=self._i32("nlist_route_ids"),
            ),
            version=int(index_meta["version"]),
            max_entries=int(index_meta["max_entries"]),
            excluded=tuple(int(route_id) for route_id in index_meta["excluded"]),
        )

    def transition_columns(self) -> TransitionIndexColumns:
        """The TR-tree side as ``TransitionIndexColumns`` over store views."""
        index_meta = self.meta["transition_index"]
        return TransitionIndexColumns(
            transitions=TransitionColumns(
                ids=self._i32("transition_ids"),
                coords=self._f64("transition_coords"),
                timestamps=_LazyTimestamps(  # type: ignore[arg-type]
                    self._f64("transition_timestamps"),
                    self._i32("transition_timestamp_mask"),
                ),
                version=int(index_meta["dataset_version"]),
            ),
            tree=self._tree_columns("ttree", self.meta["ttree"]),
            version=int(index_meta["version"]),
            max_entries=int(index_meta["max_entries"]),
        )

    def _tree_columns(self, prefix: str, tree_meta: Dict[str, Any]) -> TreeColumns:
        return TreeColumns(
            payload_kind=str(tree_meta["payload_kind"]),
            max_entries=int(tree_meta["max_entries"]),
            min_entries=int(tree_meta["min_entries"]),
            track_payload_union=bool(tree_meta["track_payload_union"]),
            size=int(tree_meta["size"]),
            child_counts=self._i32(f"{prefix}_child_counts"),
            leaf_flags=self._i32(f"{prefix}_leaf_flags"),
            entry_points=self._f64(f"{prefix}_entry_points"),
            payload_offsets=self._i32(f"{prefix}_payload_offsets"),
            payload_values=self._i32(f"{prefix}_payload_values"),
        )

    def handle(self) -> StoreHandle:
        """A reseed-shippable :class:`StoreHandle` for this store."""
        return StoreHandle(
            path=self.path,
            nbytes=self.nbytes,
            route_version=int(self.meta["route_index"]["version"]),
            transition_version=int(self.meta["transition_index"]["version"]),
            columns=tuple(
                ColumnSpec.from_meta(row) for row in self.meta["columns"]
            ),
        )

    def close(self) -> None:
        """Release the mapping (no-op while column views still alias it)."""
        try:
            self._mmap.close()
        except BufferError:
            # Live views still alias the mapping; it is released when the
            # last of them is collected (ndarray.base keeps it pinned).
            pass

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Store(path={self.path!r}, nbytes={self.nbytes})"


def _validate_meta(meta: Any, path: str, data_start: int, size: int) -> None:
    if not isinstance(meta, dict):
        raise StoreError("store meta is not a JSON object", path=path)
    for key in ("route_index", "rtree", "transition_index", "ttree", "columns"):
        if key not in meta:
            raise StoreError("store meta lacks a section", path=path, key=key)
    end = data_start
    for row in meta["columns"]:
        spec = ColumnSpec.from_meta(row)
        if spec.kind not in _ITEMSIZE:
            raise StoreError(
                "store column has an unknown kind", path=path, key=spec.key
            )
        end = max(end, data_start + spec.offset + spec.nbytes)
    if end != size:
        raise StoreError(
            "store file size does not match its column table "
            "(truncated or over-long file)",
            path=path,
            expected=end,
            actual=size,
        )


def open_store(path: str) -> Store:
    """Map a store file read-only and validate its header.

    O(1) in dataset size: reads the fixed preamble and the (small,
    constant-shape) meta blob, checks the CRC, and maps the rest — column
    bytes are paged in lazily by the OS on first access.  Every
    validation failure raises :class:`~repro.engine.resilience
    .StoreError` with structured context.
    """
    path = os.path.abspath(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise StoreError("could not open store file", path=path) from exc
    with handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(_PREAMBLE.size)
        if len(head) < _PREAMBLE.size:
            raise StoreError(
                "store file is truncated before its preamble",
                path=path,
                nbytes=size,
            )
        magic, version, meta_length, meta_crc = _PREAMBLE.unpack(head)
        if magic != MAGIC:
            raise StoreError(
                "not a store file (bad magic)", path=path, magic=magic.hex()
            )
        if version != FORMAT_VERSION:
            raise StoreError(
                "unsupported store format version",
                path=path,
                file_version=version,
                supported=FORMAT_VERSION,
            )
        meta_blob = handle.read(meta_length)
        if len(meta_blob) < meta_length:
            raise StoreError(
                "store file is truncated inside its meta blob",
                path=path,
                nbytes=size,
            )
        if zlib.crc32(meta_blob) != meta_crc:
            raise StoreError(
                "store meta checksum mismatch (corrupt header)", path=path
            )
        try:
            meta = json.loads(meta_blob.decode("utf-8"))
        except ValueError as exc:
            raise StoreError("store meta is not valid JSON", path=path) from exc
        data_start = _align(_PREAMBLE.size + meta_length)
        _validate_meta(meta, path, data_start, size)
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise StoreError("could not map store file", path=path) from exc
    meta["__data_start__"] = data_start
    return Store(path, size, meta, mapping)


def open_handle(path: str) -> StoreHandle:
    """Validate a store file and mint its :class:`StoreHandle` (O(1)).

    The boot-time twin of :func:`attach`: open, check the header, read the
    versions and column table, close.  The returned handle is what a
    serving reseed ships and what :func:`attach_context` re-validates
    against the file on every worker boot.
    """
    store = open_store(path)
    handle = store.handle()
    store.close()
    return handle


# ----------------------------------------------------------------------
# Attaching (the worker-side O(1) boot)
# ----------------------------------------------------------------------
def attach(handle: StoreHandle) -> Store:
    """Open the store a :class:`StoreHandle` points at and cross-check it.

    Fires the ``store_attach`` injection point first (chaos testing), and
    verifies that the file on disk is still byte-compatible with what the
    handle was minted from: same size, same index versions, same column
    table.  Any failure — including an injected one — surfaces as a
    typed :class:`~repro.engine.resilience.StoreError` so callers degrade
    to the pickle path uniformly.
    """
    try:
        faults.fire(faults.STORE_ATTACH)
        store = open_store(handle.path)
    except StoreError:
        raise
    except Exception as exc:
        raise StoreError("store attach failed", path=handle.path) from exc
    opened = store.handle()
    if opened != handle:
        store.close()
        raise StoreError(
            "store file changed since its handle was minted",
            path=handle.path,
            expected_versions=(handle.route_version, handle.transition_version),
            actual_versions=(opened.route_version, opened.transition_version),
        )
    return store


def attach_context(handle: StoreHandle):
    """Assemble a full :class:`~repro.engine.context.ExecutionContext`
    over store views, in O(1).

    The indexes install their columns lazily (``from_store``): nothing is
    decoded until a query touches it, so a worker boots in constant time
    regardless of dataset size and the OS shares the column pages between
    every process attached to the same file.
    """
    from repro.engine.context import ExecutionContext
    from repro.index.route_index import RouteIndex
    from repro.index.transition_index import TransitionIndex

    store = attach(handle)
    context = ExecutionContext(
        RouteIndex.from_store(store.route_columns()),
        TransitionIndex.from_store(store.transition_columns()),
    )
    context.store_handle = handle
    context._store_attachment = store
    return context
