"""A small command-line interface for exploring the reproduction.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro.cli scenario                # print the Fig. 1 tables
    python -m repro.cli update                  # run the Fig. 5 update, print the trace
    python -m repro.cli cascade                 # run the steps-6-11 cascading update
    python -m repro.cli audit                   # run a few operations, print the audit trail
    python -m repro.cli throughput --interval 12 --updates 6
    python -m repro.cli exposure                # fine-grained vs full-record exposure
    python -m repro.cli gateway-loadtest --tenants 8 --duration 30
    python -m repro.cli chaos-soak              # fault plan vs fault-free oracle
    python -m repro.cli trace                   # per-stage self-time + critical path
    python -m repro.cli metrics                 # unified metrics-registry snapshot

Every command is deterministic; latencies are simulated seconds.  Every
command also accepts ``--json`` to emit a machine-readable result instead of
the pretty-printed report, so benches and scripts can consume the output
without parsing tables.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.config import (DurabilityConfig, LoadtestSpec, ReplicationConfig,
                          ResilienceConfig, SystemConfig)

# The run engines live here; the subcommands' argument parsing and report
# tables are in :mod:`repro.cli_commands`, which only :func:`main` imports.


def run_gateway_loadtest(spec: Optional[LoadtestSpec] = None,
                         **overrides: Any) -> Dict[str, Any]:
    """Drive open-loop multi-tenant traffic through the gateway; returns metrics.

    The engine behind the ``gateway-loadtest`` subcommand (also importable
    for scripting).  The run is described by one :class:`LoadtestSpec` —
    see its fields for every parameter; keyword ``overrides`` replace
    fields of ``spec`` (or of the default spec), so
    ``run_gateway_loadtest(tenants=4, transport="async")`` works and an
    unknown keyword is a ``TypeError``.  A spec with ``processes > 1`` runs
    as a worker fleet (:func:`run_gateway_fleet`) and returns the fleet's
    aggregated result instead.

    The result always carries ``metrics`` (the gateway's tree) and the
    simulated write throughput; ``trace``/``trace_out`` add a ``trace``
    section (the :class:`~repro.obs.TraceAnalyzer` aggregation, plus the
    export path and span count), ``registry`` the registry snapshot,
    ``chaos`` a ``chaos`` section (and ``chaos_events_out`` its event
    JSONL), ``include_fingerprints`` the state fingerprints.
    """
    import tempfile

    from repro.gateway import SharingGateway
    from repro.obs import MetricsRegistry, Tracer
    from repro.workloads.topology import TopologySpec, build_topology_system
    from repro.workloads.traffic import TrafficGenerator, default_tenant_profiles

    spec = dataclasses.replace(spec or LoadtestSpec(), **overrides)
    if spec.processes > 1:
        return run_gateway_fleet(spec.processes, mode=spec.fleet_mode, spec=spec)
    if spec.replicas > 0 and spec.state_dir is None:
        # Replicas bootstrap from durable peers' checkpoints and WALs.
        with tempfile.TemporaryDirectory(prefix="repro-replicas-") as tmp:
            return run_gateway_loadtest(dataclasses.replace(spec, state_dir=tmp))
    config = dataclasses.replace(
        SystemConfig.private_chain(spec.interval),
        resilience=ResilienceConfig(latency_target_p99=spec.latency_target))
    if spec.replicas > 0:
        config = dataclasses.replace(
            config,
            durability=DurabilityConfig(
                state_dir=spec.state_dir,
                fsync_policy=spec.fsync_policy or DurabilityConfig.fsync_policy),
            replication=ReplicationConfig(replicas=spec.replicas,
                                          ship_interval=spec.replica_ship_interval,
                                          max_lag=spec.replica_max_lag))
    system = build_topology_system(
        TopologySpec(patients=spec.tenants, researchers=0, seed=spec.seed), config)
    if spec.wire_codec is not None:
        system.simulator.transport.configure_wire_codec(spec.wire_codec)
    tracer = Tracer(system.simulator.clock) if (spec.trace or spec.trace_out) else None
    # One registry, so chaos counters reach the snapshot ``repro metrics`` prints.
    registry = MetricsRegistry()
    injector = None
    if spec.chaos is not None:
        from repro.chaos import FaultInjector, RetryPolicy
        from repro.obs.tracer import NULL_TRACER
        injector = FaultInjector(_coerce_fault_plan(spec.chaos), system.simulator.clock,
                                 tracer=tracer if tracer is not None else NULL_TRACER,
                                 registry=registry)
        system.attach_chaos(
            injector, registry=registry,
            retry_policy=RetryPolicy.from_config(system.config.resilience))
    gateway = SharingGateway(system, max_batch_size=spec.batch_size,
                             default_rate=spec.rate_limit,
                             max_queue_depth=spec.max_queue_depth,
                             state_dir=spec.state_dir,
                             fsync_policy=spec.fsync_policy,
                             max_responses=spec.max_responses,
                             tracer=tracer, registry=registry)
    profiles = default_tenant_profiles(system, request_rate=spec.rate,
                                       read_fraction=spec.read_fraction)
    clock = system.simulator.clock
    arrivals = TrafficGenerator(system, seed=spec.seed).open_loop(
        profiles, duration=spec.duration, start_time=clock.now())
    sessions = {profile.peer: gateway.open_session(profile.peer) for profile in profiles}
    start = clock.now()
    front = None
    if spec.transport == "async":
        import asyncio

        from repro.gateway import AsyncSharingGateway
        front = AsyncSharingGateway(gateway, max_delay=spec.max_delay)

        async def drive() -> None:
            async with front:  # leaving it drains
                futures = await front.replay(arrivals, sessions)
            await asyncio.gather(*futures)

        asyncio.run(drive())
    else:
        for timed in arrivals:
            clock.advance_to(timed.arrival_time)
            gateway.submit(sessions[timed.tenant], timed.request)
            trigger = gateway.seal_trigger()
            if trigger is not None:
                gateway.commit_once(trigger)
        gateway.drain()
    gateway.close()
    system.close()
    elapsed = clock.now() - start
    metrics = (front or gateway).metrics()
    writes = metrics["batches"]["writes_committed"]
    result = {
        "tenants": spec.tenants,
        "transport": spec.transport,
        "arrivals": len(arrivals),
        "simulated_seconds": elapsed,
        "write_throughput": (writes / elapsed) if elapsed > 0 else 0.0,
        "metrics": metrics,
        "light_peers": system.simulator.light_statistics(),
    }
    if spec.include_fingerprints:
        result["fingerprints"] = system.state_fingerprints()
    if tracer is not None:
        from repro.obs import TraceAnalyzer, write_trace_jsonl

        result["trace"] = TraceAnalyzer.from_tracer(tracer).to_dict()
        result["trace"]["tracer"] = tracer.statistics()
        if spec.trace_out:
            result["trace"]["exported_spans"] = write_trace_jsonl(
                tracer.spans(), spec.trace_out)
            result["trace"]["export_path"] = spec.trace_out
    if spec.registry:
        result["registry"] = gateway.registry.snapshot()
    if injector is not None:
        result["chaos"] = {
            "fault_events": len(injector.events),
            "events_by_kind": injector.events_by_kind(),
            "transport": dict(system.simulator.transport.statistics),
        }
        if spec.chaos_events_out:
            result["chaos"]["events_path"] = spec.chaos_events_out
            result["chaos"]["events_written"] = injector.write_events(
                spec.chaos_events_out)
    return result


def run_gateway_fleet(processes: int, mode: str = "multiprocess",
                      timeout: float = 300.0,
                      spec: Optional[LoadtestSpec] = None,
                      **overrides: Any) -> Dict[str, Any]:
    """Run the gateway load test as a worker fleet; returns aggregated metrics.

    The engine behind ``gateway-loadtest --processes N``: the run's
    :class:`LoadtestSpec` (``spec`` with keyword ``overrides``, as for
    :func:`run_gateway_loadtest`) is dealt into ``processes`` worker slices
    (:meth:`LoadtestSpec.for_worker`), each slice runs
    :func:`run_gateway_loadtest` behind a :mod:`repro.runtime` transport,
    and the coordinator merges results and simulated clocks.  A worker
    receives its whole spec, so its result carries its own ``trace`` /
    ``registry`` / ``chaos`` / ``fingerprints`` sections.  ``mode`` picks
    the placement: ``multiprocess`` forks real worker processes (socketpair
    framing, genuinely parallel commits), ``loopback`` runs the same
    protocol over in-process queues (deterministic, byte-identical to the
    sequential runs).  The spec's ``wire_codec`` is the fleet's wire
    encoding and each worker's network-transport codec.
    """
    from repro.runtime import GatewayFleet, partition_tenants

    spec = dataclasses.replace(spec or LoadtestSpec(), processes=processes,
                               fleet_mode=mode, **overrides)
    fleet = GatewayFleet(partition_tenants(spec), mode=spec.fleet_mode,
                         wire_codec=spec.wire_codec, timeout=timeout)
    result = fleet.run().to_dict()
    result["processes"] = spec.processes
    result["tenants"] = spec.tenants
    result["wire_codec"] = spec.wire_codec
    return result


def _coerce_fault_plan(plan: Any):
    """Accept a FaultPlan, its dict form, or a path to its JSON file."""
    from repro.chaos import FaultPlan

    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, dict):
        return FaultPlan.from_dict(plan)
    return FaultPlan.load(plan)


def default_soak_plan(tenants: int = 4, rounds: int = 12, interval: float = 1.0,
                      seed: int = 7, first_patient_id: int = 188):
    """The chaos-soak's default fault plan: background message drops, WAL
    fsync errors, slow/failing consensus rounds, and one patient-node
    crash/restart window.

    The crash window is placed far past the pre-crash phase's possible clock
    span (retry backoffs and injected delays stretch the faulted run's
    clock), so :func:`run_chaos_soak` can align both the oracle and the
    faulted run to the window edges deterministically.
    """
    from repro.chaos import FaultPlan, FaultSpec

    span = max(120.0, 60.0 * interval * rounds)
    return FaultPlan(seed=seed, specs=(
        FaultSpec(kind="transport.drop", probability=0.08, max_fires=6),
        FaultSpec(kind="wal.append", probability=0.08, max_fires=3),
        FaultSpec(kind="wal.fsync", probability=0.20, max_fires=3),
        FaultSpec(kind="consensus.slow", probability=0.10, param=0.5,
                  max_fires=5),
        FaultSpec(kind="consensus.fail", probability=0.15, max_fires=2),
        FaultSpec(kind="peer.crash", target=f"node-patient-{first_patient_id}",
                  start=span, end=2.0 * span),
    ))


def run_chaos_soak(tenants: int = 4, rounds: int = 12, seed: int = 23,
                   interval: float = 1.0, plan: Optional[Any] = None,
                   inject: bool = True, retry: bool = True,
                   state_dir: Optional[str] = None,
                   events_out: Optional[str] = None) -> Dict[str, Any]:
    """One deterministic chaos-soak run; returns final-state fingerprints.

    Drives ``rounds`` rounds of writes (one per patient tenant per round)
    through a sync gateway over a ``tenants``-patient topology.  With
    ``inject`` the fault plan is attached (drops, fsync errors, slow rounds,
    one peer crash/restart window); without it the *same workload* runs
    fault-free — the oracle.  Submission shaping is identical either way:
    tenants whose node a ``peer.crash`` spec targets sit out the middle
    third of the rounds, and the clock is aligned to the crash window's
    edges between phases, so the window can only ever be open while its
    victims are silent.  The self-healing layer (retries, retransmissions,
    parked-replay) must then make the faulted run's final relational state
    *byte-identical* to the oracle's — compare the ``fingerprints``.
    """
    import tempfile

    from repro.chaos import FaultInjector, RetryPolicy
    from repro.errors import ChaosError, FleetError
    from repro.gateway import SharingGateway, UpdateEntryRequest
    from repro.workloads.topology import TopologySpec, build_topology_system
    from repro.workloads.updates import UpdateStreamGenerator

    if rounds < 3:
        raise ValueError("a chaos soak needs at least 3 rounds")
    if state_dir is None:
        # A durable response journal by default, so wal.append / wal.fsync
        # faults have a WAL on the serving path to land on.
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return run_chaos_soak(tenants=tenants, rounds=rounds, seed=seed,
                                  interval=interval, plan=plan, inject=inject,
                                  retry=retry, state_dir=tmp,
                                  events_out=events_out)
    fault_plan = (default_soak_plan(tenants=tenants, rounds=rounds,
                                    interval=interval)
                  if plan is None else _coerce_fault_plan(plan))
    crash_specs = [spec for spec in fault_plan.specs
                   if spec.kind == "peer.crash"]
    if any(spec.end is None for spec in crash_specs):
        raise ChaosError("peer.crash specs in a soak plan need a closed "
                         "[start, end) window, or parked messages never replay")
    crash_start = min((spec.start for spec in crash_specs), default=None)
    crash_end = max((spec.end for spec in crash_specs), default=None)
    victim_peers = {spec.target[len("node-"):] for spec in crash_specs
                    if spec.target and spec.target.startswith("node-")}

    system = build_topology_system(
        TopologySpec(patients=tenants, researchers=0, seed=seed),
        SystemConfig.private_chain(interval))
    clock = system.simulator.clock
    injector = None
    if inject:
        injector = FaultInjector(fault_plan, clock)
        policy = (RetryPolicy.from_config(system.config.resilience)
                  if retry else None)
        system.attach_chaos(injector, retry_policy=policy)
    gateway = SharingGateway(system, max_batch_size=max(16, tenants),
                             state_dir=state_dir)
    tenant_names = sorted(peer.name for peer in system.peers
                          if peer.role == "Patient")
    if not victim_peers <= set(tenant_names):
        raise ChaosError(f"peer.crash targets {sorted(victim_peers)} are not "
                         f"patient tenants of this topology — crashing a hub "
                         f"peer stalls every agreement")
    sessions = {name: gateway.open_session(name) for name in tenant_names}
    updates = UpdateStreamGenerator(system, seed=seed)

    # Round phases: victims write in [0, crash_from) and [crash_to, rounds),
    # and sit out the middle — the only rounds the crash window may span.
    crash_from = rounds // 3
    crash_to = rounds - rounds // 3
    responses = []

    def run_round(round_index: int) -> None:
        for name in tenant_names:
            if crash_from <= round_index < crash_to and name in victim_peers:
                continue
            metadata_id = system.peer(name).agreement_ids[0]
            event = updates.event_for(metadata_id, peer=name)
            request = UpdateEntryRequest(metadata_id=metadata_id,
                                         key=event.key, updates=event.updates)
            responses.append(gateway.submit(sessions[name], request))
        gateway.commit_once()
        clock.advance(interval)

    window_overrun = False
    for round_index in range(rounds):
        if round_index == crash_from and crash_start is not None:
            # Align both runs to the window's opening edge.  The margin in
            # the plan makes this an advance; a custom plan with a window
            # inside the pre-crash span is reported, not silently diverged.
            window_overrun = window_overrun or clock.now() > crash_start
            clock.advance_to(crash_start)
        if round_index == crash_to and crash_end is not None:
            clock.advance_to(crash_end)
            # The window is now closed: release and deliver parked messages
            # so the restarted replica replays the blocks it missed, in
            # order, before its tenant writes again.
            system.simulator.transport.flush()
        run_round(round_index)
    if crash_end is not None:
        clock.advance_to(crash_end)
        system.simulator.transport.flush()
    gateway.drain()
    gateway.close()
    system.close()

    statuses: Dict[str, int] = {}
    for response in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
    result: Dict[str, Any] = {
        "inject": inject,
        "tenants": tenants,
        "rounds": rounds,
        "seed": seed,
        "plan_seed": fault_plan.seed,
        "submitted": len(responses),
        "statuses": dict(sorted(statuses.items())),
        "all_terminal": all(response.terminal for response in responses),
        "window_overrun": window_overrun,
        "fingerprints": system.state_fingerprints(),
        "shared_tables_consistent": system.all_shared_tables_consistent(),
        "chain_lengths": {node.name: len(node.chain)
                          for node in system.simulator.nodes},
        "transport": dict(system.simulator.transport.statistics),
        "simulated_seconds": clock.now(),
        "fault_events": 0,
        "events_by_kind": {},
    }
    if injector is not None:
        result["fault_events"] = len(injector.events)
        result["events_by_kind"] = injector.events_by_kind()
        if events_out:
            result["events_path"] = str(events_out)
            result["events_written"] = injector.write_events(events_out)
    return result


def build_parser():
    """The ``repro`` argument parser (:func:`repro.cli_commands.build_parser`)."""
    from repro.cli_commands import build_parser as build

    return build()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    import sys

    sys.exit(main())
