"""Query plans: declarative descriptions of the evaluation strategies.

A :class:`QueryPlan` tells the executor *how* to run the filter → prune →
verify pipeline; the three method names of the paper are just canned plans:

==================  =============  ===========  =========================
method              use_voronoi    decompose    paper section
==================  =============  ===========  =========================
``filter-refine``   no             no           Section 4
``voronoi``         yes            no           Section 5.1
``divide-conquer``  yes            per point    Section 5.2 (Lemma 3)
==================  =============  ===========  =========================

The ``backend`` knob selects the geometry kernel implementation
(``"python"`` — the scalar predicates, ``"numpy"`` — the vectorized batch
kernels, ``"auto"`` — numpy when available).  Results are identical on
either backend; only the speed differs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.geometry.kernels import BACKEND_AUTO, resolve_backend

FILTER_REFINE = "filter-refine"
VORONOI = "voronoi"
DIVIDE_CONQUER = "divide-conquer"
METHODS = (FILTER_REFINE, VORONOI, DIVIDE_CONQUER)

#: Internal single-point strategy of the planning pre-computation: answers
#: ``RkNNT({q})`` from the context's per-endpoint k-th-route radii instead of
#: filter → prune → verify.  Not one of the paper's methods, so not in
#: ``METHODS`` and not selectable through :meth:`QueryPlan.for_method`.
KNN_RADIUS = "knn-radius"

#: Filter-phase traversal styles (see ``engine/executor.py``):
#: ``"block"`` expands all children of the best node per kernel call,
#: ``"node"`` is the node-at-a-time heap loop of the original engine.
#: Both make identical decisions; only the speed differs.
TRAVERSAL_AUTO = "auto"
TRAVERSAL_BLOCK = "block"
TRAVERSAL_NODE = "node"
TRAVERSALS = (TRAVERSAL_AUTO, TRAVERSAL_BLOCK, TRAVERSAL_NODE)

#: Set ``RKNNT_FILTER_TRAVERSAL=node`` to globally force the node-at-a-time
#: filter traversal (used by the traversal-equivalence benchmark and as an
#: escape hatch).
TRAVERSAL_ENV = "RKNNT_FILTER_TRAVERSAL"

def default_filter_traversal() -> str:
    """Resolve ``"auto"``: the env override when set, else block expansion."""
    value = os.environ.get(TRAVERSAL_ENV, "").strip().lower()
    if value in (TRAVERSAL_BLOCK, TRAVERSAL_NODE):
        return value
    return TRAVERSAL_BLOCK


def resolve_traversal(traversal: str) -> str:
    """Validate a traversal name and resolve ``"auto"`` to a concrete style.

    The single source of truth for traversal resolution — both
    :meth:`QueryPlan.resolved` and direct :class:`~repro.engine.executor
    .QueryExecutor` construction go through it (mirroring how backend
    resolution lives only in :func:`repro.geometry.kernels.resolve_backend`).
    """
    if traversal not in TRAVERSALS:
        raise ValueError(
            f"unknown filter traversal {traversal!r}; "
            f"expected one of {TRAVERSALS}"
        )
    if traversal == TRAVERSAL_AUTO:
        return default_filter_traversal()
    return traversal


@dataclass(frozen=True)
class QueryPlan:
    """How to execute one RkNNT query (or a batch of them).

    Attributes
    ----------
    method:
        The user-facing method name this plan implements.
    use_voronoi:
        Enable the per-route Voronoi filtering space (Definition 8) in the
        ``is_filtered`` predicate.
    decompose:
        Run one single-point sub-query per query point and union the
        confirmations (Lemma 3) instead of one multi-point pass.
    backend:
        Geometry-kernel backend: ``"auto"``, ``"numpy"`` or ``"python"``.
    share_subquery_cache:
        Let decomposed sub-queries reuse (and populate) the execution
        context's single-point answer cache.  Enabled for batch workloads
        where repeated points are common (divide & conquer over overlapping
        routes); disabled for one-shot queries so their reported statistics
        reflect the work actually done.  The planning pre-computation does
        not use it: its per-stop queries read the context's k-th-route
        radius table instead (``KNN_RADIUS``).
    filter_traversal:
        RR-tree filter-phase traversal: ``"block"`` (expand whole child
        blocks per kernel call), ``"node"`` (the original node-at-a-time
        loop) or ``"auto"`` (the ``RKNNT_FILTER_TRAVERSAL`` env override,
        defaulting to block expansion).  Answers and traversal statistics
        are identical either way.
    """

    method: str
    use_voronoi: bool
    decompose: bool
    backend: str = BACKEND_AUTO
    share_subquery_cache: bool = False
    filter_traversal: str = TRAVERSAL_AUTO

    @classmethod
    def for_method(
        cls,
        method: str,
        backend: str = BACKEND_AUTO,
        share_subquery_cache: bool = False,
    ) -> "QueryPlan":
        """The canned plan for one of the paper's three method names."""
        if method not in METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        return cls(
            method=method,
            use_voronoi=(method in (VORONOI, DIVIDE_CONQUER)),
            decompose=(method == DIVIDE_CONQUER),
            backend=backend,
            share_subquery_cache=share_subquery_cache,
        )

    def resolved(self) -> "QueryPlan":
        """A copy with every ``"auto"`` knob resolved to a concrete choice."""
        return replace(
            self,
            backend=resolve_backend(self.backend),
            filter_traversal=resolve_traversal(self.filter_traversal),
        )
