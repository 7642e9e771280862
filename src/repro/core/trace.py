"""The record of one shared-data operation: its numbered steps (Fig. 4 and
Fig. 5), with simulated timestamps and block numbers.

The gateway embeds traces in its write responses, so ``to_dict`` /
``from_dict`` round-trip every field exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class WorkflowStep:
    """One numbered step of a workflow run."""

    index: int
    actor: str
    action: str
    description: str
    simulated_time: float
    block_number: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**self.__dict__, "data": dict(self.data)}

    @staticmethod
    def from_dict(payload: dict) -> "WorkflowStep":
        return WorkflowStep(
            index=int(payload["index"]),
            actor=payload["actor"],
            action=payload["action"],
            description=payload["description"],
            simulated_time=float(payload["simulated_time"]),
            block_number=payload.get("block_number"),
            data=dict(payload.get("data", {})),
        )


@dataclass
class WorkflowTrace:
    """The full record of one shared-data operation and its propagation."""

    initiator: str
    metadata_id: str
    operation: str
    steps: List[WorkflowStep] = field(default_factory=list)
    succeeded: bool = False
    error: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    blocks_created: int = 0
    cascaded_metadata_ids: List[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """End-to-end simulated latency of the operation."""
        return self.finished_at - self.started_at

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def add_step(self, actor: str, action: str, description: str, clock_now: float,
                 block_number: Optional[int] = None, **data: Any) -> WorkflowStep:
        step = WorkflowStep(
            index=len(self.steps) + 1,
            actor=actor,
            action=action,
            description=description,
            simulated_time=clock_now,
            block_number=block_number,
            data=dict(data),
        )
        self.steps.append(step)
        return step

    def to_dict(self) -> dict:
        return {**self.__dict__, "steps": [step.to_dict() for step in self.steps],
                "cascaded_metadata_ids": list(self.cascaded_metadata_ids)}

    @staticmethod
    def from_dict(payload: dict) -> "WorkflowTrace":
        return WorkflowTrace(
            initiator=payload["initiator"],
            metadata_id=payload["metadata_id"],
            operation=payload["operation"],
            steps=[WorkflowStep.from_dict(step) for step in payload.get("steps", ())],
            succeeded=bool(payload.get("succeeded", False)),
            error=payload.get("error"),
            started_at=float(payload.get("started_at", 0.0)),
            finished_at=float(payload.get("finished_at", 0.0)),
            blocks_created=int(payload.get("blocks_created", 0)),
            cascaded_metadata_ids=list(payload.get("cascaded_metadata_ids", ())),
        )

    def pretty(self) -> str:
        """A plain-text rendering of the trace, step by step."""
        lines = [
            f"Workflow {self.operation!r} on {self.metadata_id!r} initiated by {self.initiator}",
            f"  succeeded={self.succeeded} elapsed={self.elapsed:.2f}s "
            f"blocks={self.blocks_created} steps={self.step_count}",
        ]
        for step in self.steps:
            block = f" [block #{step.block_number}]" if step.block_number is not None else ""
            lines.append(
                f"  {step.index:>2}. t={step.simulated_time:8.2f}s {step.actor:<12} "
                f"{step.action:<22} {step.description}{block}"
            )
        if self.error:
            lines.append(f"  ERROR: {self.error}")
        return "\n".join(lines)
