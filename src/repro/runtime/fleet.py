"""A multi-process gateway fleet behind the runtime boundary.

The fleet is the process-placement unit the ISSUE's tentpole asks for: a
coordinator partitions a gateway workload into per-worker slices (each
slice is the existing single-process pipeline — gateway, sharded lanes,
miner, durability — over its own tenant set and seed), places each slice
behind a :class:`~repro.runtime.transport.Transport`, and aggregates
results, clocks and fingerprints.

Two placements share one protocol:

``loopback``
    Worker slices run on in-process threads over
    :class:`LoopbackTransport` queues.  Because every slice owns its own
    system, clock and seed, results are deterministic regardless of thread
    interleaving — and byte-identical to running the slices sequentially.

``multiprocess``
    Worker slices run in forked child processes over ``socketpair`` framing
    (:class:`MultiprocessTransport`).  This is the placement that actually
    escapes the GIL: N CPU-bound slices commit in parallel.

Protocol (all envelopes sequence-checked per direction):

========================  =============================================
coordinator → worker      ``worker.run`` (payload: the WorkerSpec dict —
                          the slice's whole LoadtestSpec),
                          then ``worker.shutdown``
worker → coordinator      ``clock.report`` (payload: worker sim-time),
                          then ``worker.result`` (payload: slice result)
========================  =============================================

A worker that dies before replying surfaces as
:class:`~repro.errors.WorkerCrashError` carrying the exit code; with
``on_crash="collect"`` the fleet instead records the crash and keeps the
surviving workers' results — the crashed worker's durable state recovers
through the existing WAL path.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.config import LoadtestSpec
from repro.crypto.hashing import canonical_json
from repro.errors import FleetError, FleetProtocolError, WorkerCrashError
from repro.runtime.clock import ClockCoordinator
from repro.runtime.transport import (
    LoopbackTransport,
    MultiprocessTransport,
    Transport,
)

__all__ = ["WorkerSpec", "FleetResult", "GatewayFleet", "run_worker_slice"]

#: Exit code a worker uses for a deliberately injected crash (tests).
CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class WorkerSpec:
    """One worker's slice of the fleet workload.

    ``spec`` is the slice's whole :class:`~repro.config.LoadtestSpec`; the
    worker hands it to :func:`repro.cli.run_gateway_loadtest` unchanged, so
    a worker honours every option a single-process run does and a
    one-worker fleet with the full tenant count reproduces that run exactly.
    """

    name: str
    spec: LoadtestSpec
    #: Test hook: crash the worker process (``os._exit``) inside the Nth
    #: response-journal sync — i.e. mid-commit, after WAL appends.
    crash_after_syncs: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkerSpec":
        return cls(data["name"], LoadtestSpec.from_dict(data["spec"]),
                   data["crash_after_syncs"])


@dataclass
class FleetResult:
    """Aggregated outcome of one fleet run."""

    mode: str
    workers: Dict[str, Dict[str, Any]]
    crashes: List[Dict[str, Any]]
    wall_seconds: float
    committed_writes: int
    aggregate_throughput: float
    clock: Dict[str, Any]
    transport: Dict[str, Dict[str, int]]

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def run_worker_slice(spec: WorkerSpec) -> Dict[str, Any]:
    """Run one worker slice in the current process and return its result.

    This is the whole worker: the existing single-process load-test engine
    over the slice's tenants.  The result is normalised through canonical
    JSON so it fits the wire model of every codec (sets become sorted
    lists, tuples become lists) identically in loopback and multiprocess
    placements.
    """
    from repro.cli import run_gateway_loadtest

    started = time.perf_counter()
    result = run_gateway_loadtest(spec.spec)
    result["worker"] = spec.name
    result["wall_seconds"] = time.perf_counter() - started
    return json.loads(canonical_json(result))


def _install_crash_hook(crash_after_syncs: int) -> None:
    """Arm the injected mid-commit crash (worker process only).

    The hook fires inside :meth:`ResponseJournal.sync` — after the commit
    round appended its WAL entries, before the run completes — and kills
    the process with ``os._exit`` so no atexit/flush cleanup softens the
    crash.  Installed only in forked workers; the coordinator process is
    never patched.
    """
    import os

    from repro.gateway.gateway import ResponseJournal

    original = ResponseJournal.sync
    state = {"syncs": 0}

    def crashing_sync(self) -> None:
        state["syncs"] += 1
        if state["syncs"] >= crash_after_syncs:
            os._exit(CRASH_EXIT_CODE)
        original(self)

    ResponseJournal.sync = crashing_sync  # type: ignore[method-assign]


def _serve_worker(transport: Transport, forked: bool = False) -> None:
    """The worker side of the fleet protocol: serve until shutdown.

    ``forked`` is True only in a forked child process
    (:func:`_mp_worker_entry`).  The injected-crash hook is gated on it: in
    loopback mode this function runs on a coordinator thread, where
    ``os._exit`` would kill the whole coordinator and the class-wide
    ``ResponseJournal.sync`` patch would leak into every in-process worker.
    """
    while True:
        envelope = transport.receive()
        if envelope is None or envelope.kind == "worker.shutdown":
            break
        if envelope.kind != "worker.run":
            raise FleetProtocolError(
                f"worker expected 'worker.run', got {envelope.kind!r}"
            )
        spec = WorkerSpec.from_dict(envelope.payload)
        if spec.crash_after_syncs is not None:
            if not forked:
                # Surface as a clean end-of-stream (-> WorkerCrashError on
                # the coordinator side) instead of hanging the collector.
                transport.close()
                raise FleetProtocolError(
                    "crash_after_syncs requires a forked worker process; "
                    "it cannot be armed on a coordinator thread"
                )
            _install_crash_hook(spec.crash_after_syncs)
        result = run_worker_slice(spec)
        transport.send("clock.report",
                       {"worker": spec.name,
                        "now": result.get("simulated_seconds", 0.0)},
                       sent_at=result.get("simulated_seconds", 0.0))
        transport.send("worker.result", result)
    transport.close()


def _mp_worker_entry(name: str, sock: socket.socket, codec: Optional[str]) -> None:
    """Child-process entry point (fork start method)."""
    transport = MultiprocessTransport(name, sock, codec=codec)
    try:
        _serve_worker(transport, forked=True)
    except FleetProtocolError:
        # The coordinator vanished; nothing to report to.
        transport.close()


class GatewayFleet:
    """Coordinate a set of worker slices over a chosen transport placement."""

    def __init__(self, specs: List[WorkerSpec], mode: str = "loopback",
                 wire_codec: Optional[str] = None, timeout: float = 300.0,
                 on_crash: str = "raise"):
        if mode not in ("loopback", "multiprocess"):
            raise FleetError(f"unknown fleet mode {mode!r}: "
                             "use 'loopback' or 'multiprocess'")
        if on_crash not in ("raise", "collect"):
            raise FleetError(f"unknown on_crash policy {on_crash!r}")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise FleetError(f"duplicate worker names: {names}")
        if mode == "loopback":
            crashers = [spec.name for spec in specs
                        if spec.crash_after_syncs is not None]
            if crashers:
                raise FleetError(
                    "crash_after_syncs needs a forked worker process to kill "
                    "(os._exit on a loopback thread would take down the "
                    f"coordinator): use mode='multiprocess' for {crashers}")
        self.specs = list(specs)
        self.mode = mode
        self.wire_codec = wire_codec
        self.timeout = timeout
        self.on_crash = on_crash
        self.clock = ClockCoordinator()

    # -- public API --------------------------------------------------------

    def run(self) -> FleetResult:
        if not self.specs:
            raise FleetError("fleet needs at least one worker spec")
        started = time.perf_counter()
        if self.mode == "loopback":
            workers, crashes, transports = self._run_loopback()
        else:
            workers, crashes, transports = self._run_multiprocess()
        wall = time.perf_counter() - started
        committed = sum(
            result["metrics"]["batches"]["writes_committed"]
            for result in workers.values()
        )
        return FleetResult(
            mode=self.mode,
            workers=workers,
            crashes=crashes,
            wall_seconds=wall,
            committed_writes=committed,
            aggregate_throughput=(committed / wall) if wall > 0 else 0.0,
            clock={"merged_now": self.clock.now(),
                   "reports": self.clock.reports()},
            transport=transports,
        )

    # -- placements --------------------------------------------------------

    def _run_loopback(self):
        ends = {}
        threads = {}
        for spec in self.specs:
            coordinator_end, worker_end = LoopbackTransport.pair(
                left=f"coordinator->{spec.name}", right=spec.name,
                codec=self.wire_codec)
            thread = threading.Thread(target=_serve_worker, args=(worker_end,),
                                      name=f"fleet-{spec.name}", daemon=True)
            thread.start()
            ends[spec.name] = coordinator_end
            threads[spec.name] = thread
        for spec in self.specs:
            ends[spec.name].send("worker.run", spec.to_dict())
        workers, crashes = self._collect(ends, exitcode_of=lambda name: None)
        for spec in self.specs:
            ends[spec.name].send("worker.shutdown", None)
        for thread in threads.values():
            thread.join(timeout=self.timeout)
        return workers, crashes, self._transport_stats(ends)

    def _run_multiprocess(self):
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise FleetError("multiprocess fleet requires the fork start "
                            "method (POSIX)") from exc
        ends: Dict[str, MultiprocessTransport] = {}
        processes = {}
        for spec in self.specs:
            parent_sock, child_sock = socket.socketpair()
            process = context.Process(
                target=_mp_worker_entry,
                args=(spec.name, child_sock, self.wire_codec),
                name=f"fleet-{spec.name}", daemon=True)
            process.start()
            # Close the parent's copy of the child end immediately — before
            # the next fork.  Otherwise every later-forked sibling inherits a
            # duplicate of this socket and a crashed worker never reads as
            # EOF while any sibling is still alive.
            child_sock.close()
            ends[spec.name] = MultiprocessTransport(
                f"coordinator->{spec.name}", parent_sock, codec=self.wire_codec)
            processes[spec.name] = process
        for spec in self.specs:
            ends[spec.name].send("worker.run", spec.to_dict())

        def exitcode_of(name: str) -> Optional[int]:
            processes[name].join(timeout=self.timeout)
            return processes[name].exitcode

        workers, crashes = self._collect(ends, exitcode_of=exitcode_of)
        for name, end in ends.items():
            if processes[name].is_alive():
                try:
                    end.send("worker.shutdown", None)
                except FleetProtocolError:  # pragma: no cover - late crash
                    pass
        for name, process in processes.items():
            process.join(timeout=self.timeout)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        stats = self._transport_stats(ends)
        for end in ends.values():
            end.close()
        return workers, crashes, stats

    # -- shared collection logic ------------------------------------------

    def _collect(self, ends, exitcode_of):
        """Gather ``clock.report`` + ``worker.result`` from every worker."""
        workers: Dict[str, Dict[str, Any]] = {}
        crashes: List[Dict[str, Any]] = []
        for spec in self.specs:
            end = ends[spec.name]
            try:
                report = end.receive(timeout=self.timeout)
                if report is None:
                    raise WorkerCrashError(spec.name,
                                           exitcode=exitcode_of(spec.name))
                if report.kind != "clock.report":
                    raise FleetProtocolError(
                        f"expected 'clock.report' from {spec.name!r}, "
                        f"got {report.kind!r}")
                self.clock.observe(report.payload["worker"],
                                   float(report.payload["now"]))
                result = end.receive(timeout=self.timeout)
                if result is None:
                    raise WorkerCrashError(spec.name,
                                           exitcode=exitcode_of(spec.name))
                if result.kind != "worker.result":
                    raise FleetProtocolError(
                        f"expected 'worker.result' from {spec.name!r}, "
                        f"got {result.kind!r}")
                workers[spec.name] = result.payload
            except WorkerCrashError as crash:
                if self.on_crash == "raise":
                    raise
                crashes.append({"worker": crash.worker,
                                "exitcode": crash.exitcode,
                                "state_dir": spec.spec.state_dir})
        return workers, crashes

    @staticmethod
    def _transport_stats(ends) -> Dict[str, Dict[str, int]]:
        return {name: end.statistics() for name, end in ends.items()}


def partition_tenants(spec: LoadtestSpec) -> List[WorkerSpec]:
    """Deal one run into ``spec.processes`` worker slices, named
    ``worker-<index>`` (see :meth:`LoadtestSpec.for_worker`)."""
    if spec.tenants < spec.processes:
        raise FleetError(f"cannot split {spec.tenants} tenants across "
                         f"{spec.processes} workers")
    names = [f"worker-{index}" for index in range(spec.processes)]
    return [WorkerSpec(name, spec.for_worker(index, name))
            for index, name in enumerate(names)]
