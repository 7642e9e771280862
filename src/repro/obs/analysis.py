"""Aggregation over recorded spans: per-stage self-time and critical paths.

:data:`PIPELINE_STAGES` maps the five gateway pipeline stages to the span
names each one emits, so ``TraceAnalyzer.pipeline_stages()`` answers the
question the scattered ``metrics()`` dicts never could: *where does a
committed write actually spend its (simulated) time?*
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

# The five pipeline stages and the span names that belong to each.
PIPELINE_STAGES: Dict[str, tuple] = {
    "admission": ("gateway.admit", "gateway.read"),
    "seal_commit": ("gateway.commit", "scheduler.plan"),
    "consensus": ("consensus.round", "lane.mine"),
    "delta": ("delta.leg", "cascade.leg"),
    "wal": ("wal.append", "wal.fsync"),
}


def _as_payload(span: Any) -> Dict[str, Any]:
    if hasattr(span, "to_dict"):
        return span.to_dict(include_wall=True)
    payload = dict(span)
    payload.setdefault("wall_elapsed", 0.0)
    payload.setdefault("wall_self", 0.0)
    return payload


class TraceAnalyzer:
    """Aggregates a set of spans (live ``Span`` objects or exported dicts)."""

    def __init__(self, spans: Sequence[Union[Mapping[str, Any], Any]]) -> None:
        self.spans: List[Dict[str, Any]] = sorted(
            (_as_payload(span) for span in spans),
            key=lambda payload: payload["span_id"])
        self._by_id = {span["span_id"]: span for span in self.spans}
        self._children: Dict[Optional[int], List[Dict[str, Any]]] = {}
        for span in self.spans:
            self._children.setdefault(span["parent_id"], []).append(span)

    @classmethod
    def from_tracer(cls, tracer: Any) -> "TraceAnalyzer":
        return cls(tracer.spans())

    @classmethod
    def from_jsonl(cls, path: Any) -> "TraceAnalyzer":
        from repro.obs.export import read_trace_jsonl
        return cls(read_trace_jsonl(path))

    # -- aggregation -----------------------------------------------------

    @staticmethod
    def _sim_elapsed(span: Mapping[str, Any]) -> float:
        return span["sim_end"] - span["sim_start"]

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per span-name totals: count, simulated total/self, wall self."""
        summary: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            bucket = summary.setdefault(span["name"], {
                "count": 0, "sim_total": 0.0, "sim_self": 0.0,
                "wall_self": 0.0})
            bucket["count"] += 1
            bucket["sim_total"] += self._sim_elapsed(span)
            bucket["sim_self"] += span["sim_self"]
            bucket["wall_self"] += span.get("wall_self", 0.0)
        return dict(sorted(summary.items()))

    def pipeline_stages(self) -> Dict[str, Dict[str, Any]]:
        """Self-time per pipeline stage, with per-name (and per-lane)
        breakdowns.  Stages with no recorded spans still appear with zero
        counts, so callers can tell "not instrumented" from "not exercised".
        """
        by_name = self.stage_summary()
        stages: Dict[str, Dict[str, Any]] = {}
        for stage, names in PIPELINE_STAGES.items():
            breakdown = {name: by_name[name] for name in names if name in by_name}
            stages[stage] = {
                "count": int(sum(b["count"] for b in breakdown.values())),
                "sim_self": sum(b["sim_self"] for b in breakdown.values()),
                "wall_self": sum(b["wall_self"] for b in breakdown.values()),
                "spans": breakdown,
            }
        lanes: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span["name"] != "lane.mine":
                continue
            shard = str(span["attrs"].get("shard", "?"))
            lane = lanes.setdefault(shard, {"count": 0, "sim_self": 0.0})
            lane["count"] += 1
            lane["sim_self"] += span["sim_self"]
        stages["consensus"]["lanes"] = dict(sorted(lanes.items()))
        return stages

    def critical_path(self) -> List[Dict[str, Any]]:
        """The longest (by simulated elapsed) root-to-leaf chain of spans.

        Ties break toward the lowest span id, keeping the result
        deterministic.
        """
        roots = self._children.get(None, [])
        if not roots:
            return []

        def pick(candidates: List[Dict[str, Any]]) -> Dict[str, Any]:
            return max(candidates,
                       key=lambda s: (self._sim_elapsed(s), -s["span_id"]))

        path = [pick(roots)]
        while True:
            children = self._children.get(path[-1]["span_id"])
            if not children:
                return path
            path.append(pick(children))

    def request_tree(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every span belonging to ``trace_id``, plus the full subtrees of
        batch spans whose ``requests`` attribute names it (a committed
        write's consensus/delta/WAL work happens under the batch trace)."""
        matched: Dict[int, Dict[str, Any]] = {}

        def add_subtree(span: Dict[str, Any]) -> None:
            if span["span_id"] in matched:
                return
            matched[span["span_id"]] = span
            for child in self._children.get(span["span_id"], []):
                add_subtree(child)

        for span in self.spans:
            if span["trace_id"] == trace_id:
                matched.setdefault(span["span_id"], span)
            elif trace_id in span["attrs"].get("requests", ()):
                add_subtree(span)
        return [matched[span_id] for span_id in sorted(matched)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": len(self.spans),
            "stages": self.pipeline_stages(),
            "critical_path": [
                {"span_id": s["span_id"], "name": s["name"],
                 "trace_id": s["trace_id"],
                 "sim_elapsed": self._sim_elapsed(s)}
                for s in self.critical_path()
            ],
        }
