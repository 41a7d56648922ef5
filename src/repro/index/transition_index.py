"""The TR-tree: the R-tree over transition endpoints (Section 4.1.2).

Besides the spatial index itself, this module is the source of the typed
mutation stream that powers delta maintenance: every dynamic update emits a
:class:`TransitionDelta` to the registered listeners *after* the tree has
been updated, so a listener observing a delta always sees the post-mutation
index state.  The continuous-query layer (:mod:`repro.engine.continuous`)
and the execution context's delta-aware sub-query cache patching
(:mod:`repro.engine.context`) both consume this stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Tuple

from repro.geometry.bbox import BoundingBox
from repro.index.rtree import RTree, RTreeEntry, RTreeNode, paused_gc
from repro.model.dataset import TransitionDataset
from repro.model.transition import Transition

ORIGIN = "o"
DESTINATION = "d"

#: Kinds of :class:`TransitionDelta` events.
DELTA_INSERT = "insert"
DELTA_DELETE = "delete"


@dataclass(frozen=True)
class TransitionDelta:
    """One dynamic update of the transition set, as seen by listeners.

    Attributes
    ----------
    kind:
        ``"insert"`` or ``"delete"``.
    transition:
        The transition that was added to / removed from the index.
    version:
        The index's :attr:`TransitionIndex.version` *after* this mutation.
        Deltas from one index form a contiguous version sequence, which is
        what lets consumers prove that a stream of deltas fully covers a
        version gap (see ``engine/context.py``).
    """

    kind: str
    transition: Transition
    version: int

    def __post_init__(self) -> None:
        if self.kind not in (DELTA_INSERT, DELTA_DELETE):
            raise ValueError(f"kind must be '{DELTA_INSERT}' or '{DELTA_DELETE}'")


#: Signature of a mutation listener.
DeltaListener = Callable[[TransitionDelta], None]


class _Tag(NamedTuple):
    transition_id: int
    endpoint: str  # ORIGIN or DESTINATION


class TransitionEntry(_Tag):
    """Payload of a TR-tree leaf entry: which endpoint of which transition.

    A slotted named tuple, stored as the leaf entry's payload itself (one
    tag per endpoint, no container around it).
    """

    __slots__ = ()

    def __new__(cls, transition_id: int, endpoint: str) -> "TransitionEntry":
        if endpoint not in (ORIGIN, DESTINATION):
            raise ValueError(f"endpoint must be '{ORIGIN}' or '{DESTINATION}'")
        return super().__new__(cls, transition_id, endpoint)


class TransitionIndex:
    """Spatial index over a :class:`~repro.model.dataset.TransitionDataset`.

    Each transition contributes two leaf entries to the TR-tree (origin and
    destination), each carrying one :class:`TransitionEntry` tag as its
    payload so that the verification step can recover the owning
    transition.  The TR-tree keeps no per-node payload unions: nothing
    reads them (only the RR-tree's NList does).

    The index supports the dynamic workflow of the paper: transitions can be
    added as new passenger requests arrive and removed once they expire.
    """

    @paused_gc
    def __init__(self, transitions: TransitionDataset, max_entries: int = 16):
        self.transitions = transitions
        self.max_entries = max_entries
        self.tree = self._build_tree()
        #: Monotonic counter bumped on every dynamic update; the execution
        #: engine keys its per-dataset caches on it (see ``engine/context.py``).
        self.version = 0
        #: Cached columnar encoding keyed by (index version, dataset
        #: version); see :meth:`to_columns`.  Never pickled.
        self._columns_cache = None
        #: Mutation listeners notified (post-mutation) with a
        #: :class:`TransitionDelta` per dynamic update.  Never pickled: a
        #: listener usually closes over engine state that must stay private
        #: to its process (see :meth:`__getstate__`).
        self._listeners: List[DeltaListener] = []

    # ------------------------------------------------------------------
    # Mutation listeners (delta maintenance)
    # ------------------------------------------------------------------
    def add_listener(self, listener: DeltaListener) -> None:
        """Register a callable invoked after every dynamic update.

        Parameters
        ----------
        listener:
            Called as ``listener(delta)`` with a :class:`TransitionDelta`
            once the mutation has been applied to the tree.  Listeners run
            synchronously, in registration order.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: DeltaListener) -> None:
        """Unregister a listener previously added (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, kind: str, transition: Transition) -> None:
        delta = TransitionDelta(kind, transition, self.version)
        for listener in list(self._listeners):
            listener(delta)

    def _build_tree(self) -> RTree:
        points = []
        tags = []
        tag = tuple.__new__  # the endpoint labels are constants: no check
        for transition in self.transitions:
            tid = transition.transition_id
            points.append(transition.origin)
            points.append(transition.destination)
            tags.append(tag(TransitionEntry, (tid, ORIGIN)))
            tags.append(tag(TransitionEntry, (tid, DESTINATION)))
        return RTree.bulk_load_points(points, tags, max_entries=self.max_entries)

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def add_transition(self, transition: Transition) -> None:
        """Index a transition appended to the dataset after construction."""
        self.version += 1
        for entry in _endpoint_entries(transition):
            self.tree.insert(entry)
        self._emit(DELTA_INSERT, transition)

    def remove_transition(self, transition: Transition) -> int:
        """Remove a transition's endpoints from the index.

        Returns the number of entries removed (2 when both endpoints were
        indexed).
        """
        self.version += 1
        removed = 0
        for point, endpoint in (
            (transition.origin, ORIGIN),
            (transition.destination, DESTINATION),
        ):
            tag = TransitionEntry(transition.transition_id, endpoint)
            entry = self.tree.remove(point, match=lambda e: e.payload == tag)
            if entry is not None:
                removed += 1
        self._emit(DELTA_DELETE, transition)
        return removed

    # ------------------------------------------------------------------
    # Columnar boundary + pickling
    # ------------------------------------------------------------------
    def to_columns(self):
        """This index as packed columns (``TransitionIndexColumns``), cached.

        The TR-tree leaf **payload tags** are re-encoded as flattened
        ``(transition id, endpoint code)`` int32 pairs behind a per-entry
        offset table — the packed tag blocks of the columnar dataset core.
        Cache keyed by ``(index version, dataset version)``.
        """
        from repro.engine.columnar import encode_transition_index

        lazy = self.__dict__.get("_lazy_columns")
        if lazy is not None:
            # Store-backed and still unmaterialised: nothing can have
            # mutated, so the store's own columns are current by definition.
            return lazy
        key = (self.version, self.transitions.version)
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        columns = encode_transition_index(self)
        self._columns_cache = (key, columns)
        return columns

    @classmethod
    @paused_gc
    def from_columns(cls, columns) -> "TransitionIndex":
        """Rebuild an index from packed columns (structure-exact decode)."""
        from repro.engine.columnar import decode_transitions, decode_tree

        index = cls.__new__(cls)
        index.transitions = decode_transitions(columns.transitions)
        index.max_entries = columns.max_entries
        index.tree = decode_tree(columns.tree)
        index.version = columns.version
        index._listeners = []
        index._columns_cache = ((columns.version, index.transitions.version), columns)
        return index

    @classmethod
    def from_store(cls, columns) -> "TransitionIndex":
        """Build an index over store-backed columns, installing them lazily.

        O(1) in dataset size — ``transitions`` and ``tree`` stay un-decoded
        until first touched (see :meth:`__getattr__`); the mirror of
        :meth:`RouteIndex.from_store <repro.index.route_index.RouteIndex
        .from_store>`.
        """
        index = cls.__new__(cls)
        index.max_entries = columns.max_entries
        index.version = columns.version
        index._columns_cache = (
            (columns.version, columns.transitions.version),
            columns,
        )
        index._listeners = []
        index._lazy_columns = columns
        return index

    def __getattr__(self, name):
        # Only reached when an attribute is missing: a store-backed index
        # (from_store) defers decoding transitions/tree until first use.
        if name in ("transitions", "tree"):
            if self.__dict__.get("_lazy_columns") is not None:
                self._materialise_columns()
                return self.__dict__[name]
        raise AttributeError(name)

    @paused_gc
    def _materialise_columns(self) -> None:
        from repro.engine.columnar import decode_transitions, decode_tree

        columns = self.__dict__["_lazy_columns"]
        self.transitions = decode_transitions(columns.transitions)
        self.tree = decode_tree(columns.tree)
        self._lazy_columns = None

    def __getstate__(self) -> dict:
        """Pickle as packed columns.

        The listeners never travel: they are process-local observers
        (subscriptions, execution contexts); shipping an index to a shard
        worker must not drag them along — the worker re-attaches its own
        listeners as needed.
        """
        return {"__columnar__": self.to_columns()}

    def __setstate__(self, state) -> None:
        rebuilt = type(self).from_columns(state["__columnar__"])
        self.__dict__.update(rebuilt.__dict__)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> RTreeNode:
        """Root of the TR-tree."""
        return self.tree.root

    def endpoint_count(self) -> int:
        """Number of indexed endpoints (2 × the number of transitions)."""
        return len(self.tree)

    def transition(self, transition_id: int) -> Transition:
        """Resolve a transition id back to the transition object."""
        return self.transitions.get(transition_id)

    def endpoints_in_box(
        self, box: BoundingBox
    ) -> Iterator[Tuple[Tuple[float, float], TransitionEntry]]:
        """Yield ``(location, tag)`` for every endpoint inside ``box``."""
        for entry in self.tree.range_search(box):
            yield entry.point, entry.payload

    def __repr__(self) -> str:
        return (
            f"TransitionIndex(transitions={len(self.transitions)}, "
            f"endpoints={len(self.tree)})"
        )


def _endpoint_entries(transition: Transition) -> Tuple[RTreeEntry, RTreeEntry]:
    """The two TR-tree leaf entries of ``transition``: origin, destination."""
    tid = transition.transition_id
    return (
        RTreeEntry(transition.origin, TransitionEntry(tid, ORIGIN)),
        RTreeEntry(transition.destination, TransitionEntry(tid, DESTINATION)),
    )
