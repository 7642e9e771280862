"""A deterministic span tracer for the sharing-gateway pipeline.

Spans carry **two** timelines:

* *simulated* start/end read from the ledger's
  :class:`~repro.ledger.clock.SimClock` — deterministic for a given seed and
  topology, so exported traces are byte-identical across runs;
* *wall-clock* elapsed/self time from :func:`time.perf_counter` — the
  host-dependent cost of each stage, excluded from deterministic exports.

Parent/child links come from one span stack: entering a span pushes it, so
any span opened while it is active becomes its child and inherits its
``trace_id``.  A batch commit is a root of its own — the gateway stitches
causality back together by stamping the batch ``trace_id`` and member
request ids onto the commit span explicitly.  So is an admission, even one
made at a commit's round boundary (:meth:`Tracer.detached`).

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span`` returns
a shared no-op context manager: instrumentation costs one attribute load and
one call when tracing is off.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed, attributed operation; acts as its own context manager."""

    __slots__ = ("_tracer", "span_id", "trace_id", "parent_id", "name", "attrs",
                 "sim_start", "sim_end", "wall_start", "wall_elapsed",
                 "children_wall", "children_sim")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 trace_id: Optional[str], attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id: Optional[int] = None
        self.name = name
        self.attrs = attrs
        self.sim_start = 0.0
        self.sim_end = 0.0
        self.wall_start = 0.0
        self.wall_elapsed = 0.0
        self.children_wall = 0.0
        self.children_sim = 0.0

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            if self.trace_id is None:
                self.trace_id = parent.trace_id
        stack.append(self)
        self.sim_start = self._tracer._now()
        self.wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_elapsed = time.perf_counter() - self.wall_start
        self.sim_end = self._tracer._now()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: unwound out of order
            stack.remove(self)
        if stack:
            parent = stack[-1]
            parent.children_wall += self.wall_elapsed
            parent.children_sim += self.sim_end - self.sim_start
        self._tracer._finish(self)

    # -- mutation --------------------------------------------------------

    def annotate(self, **attrs: Any) -> "Span":
        """Merge extra attributes into the span; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def set_trace_id(self, trace_id: str) -> None:
        self.trace_id = trace_id

    # -- derived timings -------------------------------------------------

    @property
    def sim_elapsed(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def sim_self(self) -> float:
        """Simulated time spent in this span minus its direct children."""
        return self.sim_elapsed - self.children_sim

    @property
    def wall_self(self) -> float:
        """Wall-clock time spent in this span minus its direct children."""
        return self.wall_elapsed - self.children_wall

    def to_dict(self, include_wall: bool = False) -> Dict[str, Any]:
        """The span as a plain dict.

        Without ``include_wall`` only deterministic fields appear, so two
        identically-seeded runs export byte-identical span trees.
        """
        payload: Dict[str, Any] = {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "sim_self": self.sim_self,
        }
        if include_wall:
            payload["wall_elapsed"] = self.wall_elapsed
            payload["wall_self"] = self.wall_self
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(id={self.span_id}, name={self.name!r}, "
                f"trace={self.trace_id!r}, parent={self.parent_id})")


class _NullSpan:
    """Shared no-op span: every tracer call site works unconditionally."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def set_trace_id(self, trace_id: str) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: ``span()`` hands back one shared no-op span."""

    enabled = False

    def span(self, name: str, trace_id: Optional[str] = None,
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def detached(self) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> Tuple[Span, ...]:
        return ()

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Records :class:`Span` trees against a simulated clock.

    Parameters
    ----------
    clock:
        Anything with a ``now()`` method — in practice the system's
        :class:`~repro.ledger.clock.SimClock`.  ``None`` stamps simulated
        times as ``0.0`` (useful in unit tests that only check structure).
    max_spans:
        Optional retention cap; once reached further spans are counted in
        ``spans_dropped`` instead of stored, bounding memory on long runs.
    """

    enabled = True

    def __init__(self, clock: Optional[Any] = None,
                 max_spans: Optional[int] = None) -> None:
        self._clock = clock
        self._max_spans = max_spans
        self._ids = itertools.count(1)
        self._spans: List[Span] = []
        #: The open spans, innermost last.
        self._stack: List[Span] = []
        self.spans_dropped = 0

    # -- internals used by Span -----------------------------------------

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    def _finish(self, span: Span) -> None:
        if self._max_spans is not None and len(self._spans) >= self._max_spans:
            self.spans_dropped += 1
        else:
            self._spans.append(span)

    # -- public API ------------------------------------------------------

    def span(self, name: str, trace_id: Optional[str] = None,
             **attrs: Any) -> Span:
        """A new span; use as ``with tracer.span("stage", key=value) as s:``.

        ``trace_id`` defaults to the enclosing span's trace id (if any);
        roots without one stay ``None`` until :meth:`Span.set_trace_id`.
        """
        return Span(self, next(self._ids), name, trace_id, attrs)

    @contextlib.contextmanager
    def detached(self) -> Iterator[None]:
        """Spans opened inside are roots: the open spans are set aside and
        restored on exit.  For work that runs inside a span without being
        part of it — an arrival admitted at a commit's round boundary."""
        outer, self._stack = self._stack, []
        try:
            yield
        finally:
            self._stack = outer

    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def spans(self) -> Tuple[Span, ...]:
        """All finished spans, in completion order."""
        return tuple(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        """Drop recorded spans (open spans keep their ids and still record)."""
        self._spans.clear()
        self.spans_dropped = 0

    def statistics(self) -> Dict[str, Any]:
        recorded = len(self._spans)
        names: Dict[str, int] = {}
        for span in self._spans:
            names[span.name] = names.get(span.name, 0) + 1
        return {
            "spans_recorded": recorded,
            "spans_dropped": self.spans_dropped,
            "spans_by_name": dict(sorted(names.items())),
        }
