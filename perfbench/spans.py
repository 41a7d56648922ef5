"""In-memory spans taken around calls into the program's public functions.

A span records a name, its start and end (``perf_counter_ns``), the span
that was open on the same thread when it started (its parent), a request
id shared by every span of one request, and free-form tags.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of a run.

The untraced mode uses :data:`OFF`, whose ``span`` and ``wrap`` do nothing,
so end-to-end numbers are measured without any instrumentation in the
path.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    request: Optional[str]
    start_ns: int
    end_ns: int = 0
    tags: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans from any number of threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None, **tags: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else None,
            request=request,
            start_ns=time.perf_counter_ns(),
            tags=tags,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a spanned call until :meth:`restore`."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, spanned)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times_ns(self) -> Dict[int, int]:
        """Span id -> duration minus the part its children's spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: Dict[int, int] = {}
        for span in self.spans:
            covered = 0
            cursor = span.start_ns
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start_ns):
                begin = max(child.start_ns, cursor)
                end = min(child.end_ns, span.end_ns)
                if end > begin:
                    covered += end - begin
                    cursor = end
            result[span.id] = span.duration_ns - covered
        return result

    def tag_of(self, span: Span, key: str) -> Any:
        """The nearest value of tag ``key`` on the span or its ancestors."""
        by_id = self._by_id()
        current: Optional[Span] = span
        while current is not None:
            if key in current.tags:
                return current.tags[key]
            current = by_id.get(current.parent) if current.parent is not None else None
        return None

    def _by_id(self) -> Dict[int, Span]:
        cached = getattr(self, "_index", None)
        if cached is None or len(cached) != len(self.spans):
            cached = self._index = {span.id: span for span in self.spans}
        return cached

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


class _Off:
    """The untraced mode: no spans, no wrappers."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None, **tags: Any) -> Iterator[None]:
        yield None

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        pass

    def restore(self) -> None:
        pass


OFF = _Off()
