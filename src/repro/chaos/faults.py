"""Deterministic fault injection: fault plans and the injector.

A :class:`FaultPlan` is a serialisable schedule of :class:`FaultSpec`\\ s —
each one a *kind* of fault (``transport.drop``, ``wal.fsync``,
``peer.crash``, ...) scoped to an optional target, a ``[start, end)`` window
of simulated time, a firing probability and an optional fire budget.  A
:class:`FaultInjector` evaluates the plan against the shared
:class:`~repro.ledger.clock.SimClock` and a seeded RNG, so the same plan,
seed and workload always inject the same faults at the same simulated
instants — chaos runs are replayable bit for bit.

Injection points call one of three probes:

* :meth:`FaultInjector.should` — boolean faults (drop this message?);
* :meth:`FaultInjector.delay` — added latency (slow consensus round);
* :meth:`FaultInjector.maybe_fail` — raise the fault kind's typed exception
  (:class:`~repro.errors.InjectedDiskError` for WAL faults,
  :class:`~repro.errors.TransientFault` for retryable consensus failures,
  :class:`~repro.errors.InjectedFault` otherwise);
* :meth:`FaultInjector.active` — pure window test, consuming no randomness
  (peer crash/restart windows).

Every fired fault is appended to :attr:`FaultInjector.events` (exportable as
JSONL for CI artifacts), emitted as a ``chaos.fault`` span event on the
attached tracer, and counted in the metrics registry.  The module-level
:data:`NULL_INJECTOR` is a no-op used as the default everywhere, so the
production path pays nothing when chaos is not attached.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    ChaosError,
    InjectedDiskError,
    InjectedFault,
    TransientFault,
)
from repro.obs.tracer import NULL_TRACER

#: Every fault kind the pipeline exposes an injection point for.
FAULT_KINDS: Tuple[str, ...] = (
    "transport.drop",    # drop a message in flight (bool probe, per recipient)
    "transport.delay",   # add `param` seconds of delivery latency
    "peer.crash",        # window: the target peer's replica is offline;
                         # inbound messages park and replay in order on restart
    "wal.append",        # raise InjectedDiskError before a WAL append
    "wal.fsync",         # raise InjectedDiskError before a WAL fsync
    "consensus.fail",    # raise TransientFault before a mining round
    "consensus.slow",    # add `param` seconds before a mining round
    "commit.fail",       # raise InjectedFault at the top of a commit batch
    "contract.fail",     # raise InjectedFault inside one group's contract step
)

#: Exception type raised by :meth:`FaultInjector.maybe_fail` per kind.
_RAISE_AS = {
    "wal.append": InjectedDiskError,
    "wal.fsync": InjectedDiskError,
    "consensus.fail": TransientFault,
    "commit.fail": InjectedFault,
    "contract.fail": InjectedFault,
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    start / end:
        Simulated-time window ``[start, end)`` in which the spec is armed;
        ``end=None`` leaves it armed forever.
    probability:
        Chance of firing per probe while armed (1.0 = always).  Draws come
        from the injector's seeded RNG, so they are replayable.
    target:
        Restrict the spec to one target (a peer name for transport faults,
        a metadata id for ``contract.fail``); ``None`` matches any target.
    param:
        Kind-specific magnitude — added seconds for ``transport.delay`` /
        ``consensus.slow``, unused otherwise.
    max_fires:
        Fire budget; once spent the spec disarms.  ``None`` is unbounded.
    """

    kind: str
    start: float = 0.0
    end: Optional[float] = None
    probability: float = 1.0
    target: Optional[str] = None
    param: float = 0.0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosError(
                f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}")
        if self.start < 0:
            raise ChaosError("fault window start must be non-negative")
        if self.end is not None and self.end <= self.start:
            raise ChaosError("fault window end must be after start")
        if not 0.0 < self.probability <= 1.0:
            raise ChaosError("fault probability must be in (0, 1]")
        if self.param < 0:
            raise ChaosError("fault param must be non-negative")
        if self.max_fires is not None and self.max_fires < 1:
            raise ChaosError("max_fires must be at least 1 (or None)")

    def in_window(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)

    def matches(self, kind: str, target: Optional[str], now: float) -> bool:
        return (self.kind == kind and self.in_window(now)
                and (self.target is None or self.target == target))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.start:
            data["start"] = self.start
        if self.end is not None:
            data["end"] = self.end
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.target is not None:
            data["target"] = self.target
        if self.param:
            data["param"] = self.param
        if self.max_fires is not None:
            data["max_fires"] = self.max_fires
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise ChaosError(f"fault spec must be a dict with a 'kind': {data!r}")
        known = {"kind", "start", "end", "probability", "target", "param",
                 "max_fires"}
        unknown = set(data) - known
        if unknown:
            raise ChaosError(f"unknown fault spec fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable schedule of faults."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 7

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ChaosError(f"fault plan must be a dict: {data!r}")
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ChaosError(f"unknown fault plan fields: {sorted(unknown)}")
        faults = data.get("faults", [])
        if not isinstance(faults, (list, tuple)):
            raise ChaosError("fault plan 'faults' must be a list")
        return cls(specs=tuple(FaultSpec.from_dict(spec) for spec in faults),
                   seed=int(data.get("seed", 7)))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosError(f"malformed fault plan JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.loads(Path(path).read_text(encoding="utf-8"))


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the sim clock and a seeded RNG.

    The injected schedule is fully deterministic in (plan, seed, workload).
    """

    def __init__(self, plan: FaultPlan, clock, tracer=NULL_TRACER,
                 registry=None) -> None:
        self.plan = plan
        self.clock = clock
        self.tracer = tracer
        self.registry = registry
        self.seed = plan.seed
        self._rng = random.Random(plan.seed)
        self._fires = [0] * len(plan.specs)
        self._windows_open: set = set()
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- matching

    def _match(self, kind: str, target: Optional[str]):
        """First armed spec for ``kind``/``target`` that fires, or None.

        A probabilistic spec consumes exactly one
        RNG draw per probe whether or not it fires, keeping the stream
        deterministic in the probe sequence.
        """
        now = self.clock.now()
        for index, spec in enumerate(self.plan.specs):
            if not spec.matches(kind, target, now):
                continue
            if spec.max_fires is not None and self._fires[index] >= spec.max_fires:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            return index, spec
        return None, None

    def _record(self, index: Optional[int], spec: FaultSpec,
                       target: Optional[str], outcome: str) -> None:
        if index is not None:
            self._fires[index] += 1
        shown = target if target is not None else (spec.target or "")
        event = {
            "seq": len(self.events) + 1,
            "time": round(self.clock.now(), 9),
            "kind": spec.kind,
            "target": shown,
            "param": spec.param,
            "outcome": outcome,
        }
        self.events.append(event)
        with self.tracer.span("chaos.fault", kind=spec.kind, target=shown,
                              param=spec.param, outcome=outcome):
            pass
        if self.registry is not None:
            self.registry.counter("chaos_faults_injected",
                                  kind=spec.kind).inc()

    # --------------------------------------------------------------- probes

    def should(self, kind: str, target: Optional[str] = None) -> bool:
        """Boolean probe: does a ``kind`` fault fire here and now?"""
        index, spec = self._match(kind, target)
        if spec is None:
            return False
        self._record(index, spec, target, "fired")
        return True

    def delay(self, kind: str, target: Optional[str] = None) -> float:
        """Latency probe: extra simulated seconds to add (0.0 = no fault)."""
        index, spec = self._match(kind, target)
        if spec is None:
            return 0.0
        self._record(index, spec, target, "delayed")
        return spec.param

    def maybe_fail(self, kind: str, target: Optional[str] = None) -> None:
        """Raise the fault kind's typed exception if a spec fires."""
        index, spec = self._match(kind, target)
        if spec is None:
            return
        self._record(index, spec, target, "raised")
        exc_type = _RAISE_AS.get(kind, InjectedFault)
        suffix = f" on {target}" if target else ""
        raise exc_type(f"injected: {kind} fault{suffix}")

    def active(self, kind: str, target: Optional[str] = None) -> bool:
        """Pure window test: is a ``kind`` window open for ``target``?

        Consumes no randomness and no fire budget (probability and
        ``max_fires`` are ignored), so crash windows are stable however many
        times they are polled.  The window-open edge is logged once.
        """
        now = self.clock.now()
        for index, spec in enumerate(self.plan.specs):
            if spec.matches(kind, target, now):
                if index not in self._windows_open:
                    self._windows_open.add(index)
                    self._record(None, spec, target, "window-open")
                return True
        return False

    # --------------------------------------------------------------- export

    def events_by_kind(self) -> Dict[str, int]:
        summary: Dict[str, int] = {}
        for event in self.events:
            summary[event["kind"]] = summary.get(event["kind"], 0) + 1
        return dict(sorted(summary.items()))

    def write_events(self, path) -> int:
        """Export the fault-event log as JSONL; returns the event count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(self.events)


class NullFaultInjector:
    """The no-op injector: every probe says "no fault"."""

    plan = FaultPlan()
    seed = 7
    events: Tuple = ()

    def should(self, kind: str, target: Optional[str] = None) -> bool:
        return False

    def delay(self, kind: str, target: Optional[str] = None) -> float:
        return 0.0

    def maybe_fail(self, kind: str, target: Optional[str] = None) -> None:
        return None

    def active(self, kind: str, target: Optional[str] = None) -> bool:
        return False

    def events_by_kind(self) -> Dict[str, int]:
        return {}

    def write_events(self, path) -> int:
        return 0


#: Shared no-op injector — the default at every injection point.
NULL_INJECTOR = NullFaultInjector()
