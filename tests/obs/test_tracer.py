"""Unit tests for the span tracer: nesting, timelines, the null tracer."""

from __future__ import annotations

import pytest

from repro.obs import NULL_TRACER, Span, Tracer
from repro.obs.tracer import _NULL_SPAN


class FakeClock:
    """A manually advanced stand-in for the ledger's SimClock."""

    def __init__(self) -> None:
        self.time = 0.0

    def now(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        self.time += seconds


class TestSpanStructure:
    def test_root_span_records_name_attrs_and_ids(self):
        tracer = Tracer()
        with tracer.span("stage", key="value") as span:
            assert tracer.current_span() is span
        assert tracer.current_span() is None
        (recorded,) = tracer.spans()
        assert recorded.name == "stage"
        assert recorded.attrs == {"key": "value"}
        assert recorded.span_id == 1
        assert recorded.parent_id is None
        assert recorded.trace_id is None

    def test_nested_spans_link_to_parent_and_inherit_trace_id(self):
        tracer = Tracer()
        with tracer.span("outer", trace_id="req-1") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == "req-1"
            with tracer.span("sibling", trace_id="other") as sibling:
                assert sibling.trace_id == "other"
        names = [span.name for span in tracer.spans()]
        # Completion order: children finish before their parent.
        assert names == ["inner", "sibling", "outer"]

    def test_set_trace_id_and_annotate(self):
        tracer = Tracer()
        with tracer.span("stage") as span:
            span.set_trace_id("batch-1")
            assert span.annotate(extra=3) is span
        (recorded,) = tracer.spans()
        assert recorded.trace_id == "batch-1"
        assert recorded.attrs["extra"] == 3

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("stage"):
                raise RuntimeError("boom")
        (recorded,) = tracer.spans()
        assert recorded.attrs["error"] == "RuntimeError"
        # The tracer's stack unwound cleanly despite the exception.
        assert tracer.current_span() is None


class TestDetached:
    def test_spans_inside_are_roots_and_the_open_spans_return(self):
        tracer = Tracer()
        with tracer.span("commit", trace_id="batch-1") as commit:
            with tracer.detached():
                assert tracer.current_span() is None
                with tracer.span("admit") as admit:
                    with tracer.span("check") as check:
                        pass
            assert tracer.current_span() is commit
            with tracer.span("plan") as plan:
                pass
        assert admit.parent_id is None and admit.trace_id is None
        assert check.parent_id == admit.span_id
        assert plan.parent_id == commit.span_id
        # The detached span's time is not the commit's children's time.
        assert commit.children_wall == plan.wall_elapsed

    def test_the_open_spans_return_when_the_body_raises(self):
        tracer = Tracer()
        with tracer.span("commit") as commit:
            with pytest.raises(RuntimeError):
                with tracer.detached():
                    with tracer.span("admit"):
                        raise RuntimeError("boom")
            assert tracer.current_span() is commit
        assert tracer.current_span() is None
        admit = next(span for span in tracer.spans() if span.name == "admit")
        assert admit.parent_id is None
        assert admit.attrs["error"] == "RuntimeError"


class TestTimelines:
    def test_sim_times_come_from_the_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer"):
            clock.advance(3.0)
            with tracer.span("inner"):
                clock.advance(2.0)
            clock.advance(1.0)
        inner, outer = tracer.spans()
        assert (outer.sim_start, outer.sim_end) == (0.0, 6.0)
        assert (inner.sim_start, inner.sim_end) == (3.0, 5.0)
        assert outer.sim_elapsed == 6.0
        # Self time excludes the direct child's elapsed time.
        assert outer.sim_self == pytest.approx(4.0)
        assert inner.sim_self == pytest.approx(2.0)

    def test_wall_self_excludes_children(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.wall_elapsed >= 0.0
        assert outer.wall_self == pytest.approx(
            outer.wall_elapsed - inner.wall_elapsed)

    def test_no_clock_stamps_zero(self):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        (span,) = tracer.spans()
        assert span.sim_start == 0.0 and span.sim_end == 0.0

    def test_to_dict_excludes_wall_fields_by_default(self):
        tracer = Tracer(FakeClock())
        with tracer.span("stage", a=1):
            pass
        (span,) = tracer.spans()
        payload = span.to_dict()
        assert set(payload) == {"span_id", "trace_id", "parent_id", "name",
                                "attrs", "sim_start", "sim_end", "sim_self"}
        with_wall = span.to_dict(include_wall=True)
        assert "wall_elapsed" in with_wall and "wall_self" in with_wall


class TestTracerBookkeeping:
    def test_max_spans_caps_retention_and_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 2
        assert tracer.spans_dropped == 3
        stats = tracer.statistics()
        assert stats["spans_recorded"] == 2
        assert stats["spans_dropped"] == 3

    def test_statistics_groups_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        assert tracer.statistics()["spans_by_name"] == {"a": 3, "b": 1}

    def test_clear_resets_spans_and_drop_counter(self):
        tracer = Tracer(max_spans=1)
        for _ in range(2):
            with tracer.span("s"):
                pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.spans_dropped == 0

    def test_iteration_yields_finished_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert [span.name for span in tracer] == ["a"]


class TestNullTracer:
    def test_span_is_shared_noop_context_manager(self):
        span = NULL_TRACER.span("anything", key="value")
        assert span is _NULL_SPAN
        with span as entered:
            assert entered is span
            assert entered.annotate(more=1) is span
            entered.set_trace_id("req-1")
        assert NULL_TRACER.spans() == ()

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_detached_is_a_noop_context_manager(self):
        with NULL_TRACER.detached():
            assert NULL_TRACER.span("stage") is _NULL_SPAN
        assert NULL_TRACER.spans() == ()

    def test_survives_exceptions_without_recording(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("stage"):
                raise ValueError("boom")
        assert NULL_TRACER.spans() == ()
