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
kernels, ``"auto"`` — numpy).  Results are identical on
either backend; only the speed differs.
"""

from __future__ import annotations

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
    """

    method: str
    use_voronoi: bool
    decompose: bool
    backend: str = BACKEND_AUTO

    @classmethod
    def for_method(cls, method: str, backend: str = BACKEND_AUTO) -> "QueryPlan":
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
        )

    def resolved(self) -> "QueryPlan":
        """A copy with every ``"auto"`` knob resolved to a concrete choice."""
        return replace(self, backend=resolve_backend(self.backend))
