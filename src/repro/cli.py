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

import argparse
import dataclasses
import json
import sys
from typing import (Any, Container, Dict, List, Optional, get_args,
                    get_type_hints)

from repro.baselines.full_record import FullRecordSharingBaseline
from repro.config import (DurabilityConfig, LoadtestSpec, ReplicationConfig,
                          SystemConfig)
from repro.core.scenario import (
    CARE_TABLE,
    DOCTOR_RESEARCHER_TABLE,
    PATIENT_DOCTOR_TABLE,
    STUDY_TABLE,
    build_extended_scenario,
    build_paper_scenario,
)
from repro.errors import ChaosError, FleetError
from repro.metrics.collectors import exposure_report, measure_throughput
from repro.metrics.reporting import format_table
from repro.workloads.updates import UpdateStreamGenerator


def _emit_json(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _cmd_scenario(args: argparse.Namespace) -> int:
    system = build_paper_scenario()
    consistent = system.all_shared_tables_consistent()
    if args.json:
        _emit_json({
            "local_tables": {
                "D1": system.peer("patient").local_table("D1").to_dict(),
                "D2": system.peer("researcher").local_table("D2").to_dict(),
                "D3": system.peer("doctor").local_table("D3").to_dict(),
            },
            "shared_tables": {
                PATIENT_DOCTOR_TABLE:
                    system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE).to_dict(),
                DOCTOR_RESEARCHER_TABLE:
                    system.peer("doctor").shared_table(DOCTOR_RESEARCHER_TABLE).to_dict(),
            },
            "consistent": consistent,
        })
        return 0
    print(system.peer("patient").local_table("D1").pretty(), "\n")
    print(system.peer("researcher").local_table("D2").pretty(), "\n")
    print(system.peer("doctor").local_table("D3").pretty(), "\n")
    print(system.peer("patient").shared_table(PATIENT_DOCTOR_TABLE).pretty(), "\n")
    print(system.peer("doctor").shared_table(DOCTOR_RESEARCHER_TABLE).pretty(), "\n")
    print("shared tables consistent:", consistent)
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    system = build_paper_scenario(SystemConfig.private_chain(args.interval))
    trace = system.coordinator.update_shared_entry(
        "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
        {"mechanism_of_action": "MeA1-revised"})
    if args.json:
        _emit_json({"trace": trace.to_dict(),
                    "doctor_D3": system.peer("doctor").local_table("D3").to_dict()})
    else:
        print(trace.pretty(), "\n")
        print(system.peer("doctor").local_table("D3").pretty())
    return 0 if trace.succeeded else 1


def _cmd_cascade(args: argparse.Namespace) -> int:
    system = build_extended_scenario(SystemConfig.private_chain(args.interval))
    trace = system.coordinator.update_shared_entry(
        "researcher", STUDY_TABLE, (188,), {"dosage": "two tablets every 12h"})
    ok = trace.succeeded and CARE_TABLE in trace.cascaded_metadata_ids
    if args.json:
        _emit_json({"trace": trace.to_dict(),
                    "cascaded": list(trace.cascaded_metadata_ids),
                    "patient_care_table":
                        system.peer("patient").shared_table(CARE_TABLE).to_dict()})
    else:
        print(trace.pretty(), "\n")
        print(system.peer("patient").shared_table(CARE_TABLE).pretty())
    return 0 if ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    system = build_paper_scenario()
    system.coordinator.update_shared_entry(
        "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
        {"mechanism_of_action": "MeA1-revised"})
    system.coordinator.change_permission(
        "doctor", PATIENT_DOCTOR_TABLE, "dosage", ["Doctor", "Patient"])
    system.coordinator.update_shared_entry(
        "patient", PATIENT_DOCTOR_TABLE, (188,), {"dosage": "one tablet every 8h"})
    trail = system.audit_trail(via_peer=args.via)
    check = system.check_contract_specification()
    integrity = trail.verify_integrity()
    if args.json:
        _emit_json({
            "records": [record.to_dict() for record in trail.records()],
            "permission_changes": trail.permission_changes(),
            "updates_by_peer": trail.updates_by_peer(),
            "integrity": integrity,
            "spec_check_passed": check.passed,
        })
    else:
        print(trail.pretty(), "\n")
        print("contract specification check:", "PASSED" if check.passed else "FAILED")
    return 0 if check.passed and integrity else 1


def _cmd_throughput(args: argparse.Namespace) -> int:
    system = build_paper_scenario(SystemConfig.private_chain(args.interval))
    events = UpdateStreamGenerator(system, seed=args.seed).stream(args.updates)
    result = measure_throughput(system, events)
    if args.json:
        payload = dict(result.to_dict())
        payload["block_interval"] = args.interval
        _emit_json(payload)
        return 0
    print(format_table(
        ("metric", "value"),
        [("block interval (s)", args.interval),
         ("updates accepted", result.updates_accepted),
         ("updates rejected", result.updates_rejected),
         ("simulated seconds", round(result.simulated_seconds, 2)),
         ("throughput (updates/s)", round(result.throughput, 4)),
         ("blocks created", result.blocks_created)],
        title="Shared-data update throughput"))
    return 0


def _cmd_exposure(args: argparse.Namespace) -> int:
    system = build_paper_scenario()
    baseline = FullRecordSharingBaseline()
    baseline.register_provider_table("doctor", system.peer("doctor").local_table("D3"))
    baseline.grant_access("doctor", "Patient", "D3")
    baseline.grant_access("doctor", "Researcher", "D3")
    report = exposure_report(
        fine_grained={
            "Patient": system.agreement(PATIENT_DOCTOR_TABLE).shared_columns,
            "Researcher": system.agreement(DOCTOR_RESEARCHER_TABLE).shared_columns,
        },
        full_record=baseline.exposure_matrix(),
    )
    counts = report.exposure_counts()
    if args.json:
        _emit_json({"exposure_counts": counts,
                    "unnecessary_attributes": {
                        role: list(columns)
                        for role, columns in report.unnecessary_attributes().items()
                    }})
        return 0
    print(format_table(
        ("role", "fine-grained attrs", "full-record attrs", "unnecessary"),
        [(role, counts[role]["fine_grained"], counts[role]["full_record"],
          counts[role]["unnecessary"]) for role in sorted(counts)],
        title="Attribute exposure: fine-grained views vs full-record sharing"))
    return 0


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
    import asyncio
    import tempfile

    from repro.gateway import AsyncSharingGateway, SharingGateway
    from repro.obs import MetricsRegistry, Tracer, TraceAnalyzer, write_trace_jsonl
    from repro.workloads.topology import TopologySpec, build_topology_system
    from repro.workloads.traffic import (TrafficGenerator, default_tenant_profiles,
                                         replay_open_loop)

    spec = dataclasses.replace(spec or LoadtestSpec(), **overrides)
    if spec.processes > 1:
        return run_gateway_fleet(spec.processes, mode=spec.fleet_mode, spec=spec)
    if spec.replicas > 0 and spec.state_dir is None:
        # Replicas bootstrap from durable peers' checkpoints and WALs.
        with tempfile.TemporaryDirectory(prefix="repro-replicas-") as tmp:
            return run_gateway_loadtest(dataclasses.replace(spec, state_dir=tmp))
    config = SystemConfig.private_chain(spec.interval)
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
                             tracer=tracer, registry=registry,
                             latency_target=spec.latency_target)
    profiles = default_tenant_profiles(system, request_rate=spec.rate,
                                       read_fraction=spec.read_fraction)
    clock = system.simulator.clock
    arrivals = TrafficGenerator(system, seed=spec.seed).open_loop(
        profiles, duration=spec.duration, start_time=clock.now())
    sessions = {profile.peer: gateway.open_session(profile.peer) for profile in profiles}
    start = clock.now()
    front = None
    if spec.transport == "async":
        front = AsyncSharingGateway(gateway, max_delay=spec.max_delay)

        async def drive() -> None:
            async with front:  # leaving it drains
                futures = await replay_open_loop(
                    arrivals,
                    lambda timed: front.submit_nowait(sessions[timed.tenant],
                                                      timed.request),
                    clock)
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
    }
    if spec.include_fingerprints:
        result["fingerprints"] = system.state_fingerprints()
    if tracer is not None:
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


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    """Run the faulted soak against its fault-free oracle and compare."""
    plan = args.plan  # a path, or None for the default plan
    common = dict(tenants=args.tenants, rounds=args.rounds, seed=args.seed,
                  interval=args.interval, plan=plan)
    try:
        oracle = run_chaos_soak(inject=False, **common)
        faulted = run_chaos_soak(inject=True, events_out=args.events_out,
                                 **common)
    except (ValueError, ChaosError, OSError) as exc:
        print(f"chaos-soak: {exc}", file=sys.stderr)
        return 2
    oracle_bytes = json.dumps(oracle["fingerprints"], sort_keys=True).encode()
    faulted_bytes = json.dumps(faulted["fingerprints"], sort_keys=True).encode()
    converged = oracle_bytes == faulted_bytes
    chains_converged = (len(set(faulted["chain_lengths"].values())) == 1
                        and faulted["chain_lengths"] == oracle["chain_lengths"])
    ok = (converged and chains_converged and faulted["all_terminal"]
          and oracle["all_terminal"] and faulted["shared_tables_consistent"])
    if args.json:
        _emit_json({
            "converged": converged,
            "chains_converged": chains_converged,
            "ok": ok,
            "oracle": {k: oracle[k] for k in
                       ("submitted", "statuses", "all_terminal",
                        "simulated_seconds")},
            "faulted": {k: faulted[k] for k in
                        ("submitted", "statuses", "all_terminal",
                         "fault_events", "events_by_kind", "transport",
                         "simulated_seconds", "window_overrun")},
        })
        return 0 if ok else 1
    transport = faulted["transport"]
    print(format_table(
        ("metric", "value"),
        [("tenants / rounds", f"{args.tenants} / {args.rounds}"),
         ("writes submitted (each run)", faulted["submitted"]),
         ("fault events injected", faulted["fault_events"]),
         ("faults by kind", ", ".join(f"{kind}={count}" for kind, count in
                                      sorted(faulted["events_by_kind"].items()))
          or "-"),
         ("messages dropped then retransmitted", transport["retransmits"]),
         ("messages lost for good", transport["lost"]),
         ("all responses terminal", faulted["all_terminal"]),
         ("chain lengths converged", chains_converged),
         ("fingerprints byte-identical", converged)],
        title="Chaos soak vs fault-free oracle"))
    if not ok:
        print("chaos-soak: faulted run DIVERGED from the oracle", file=sys.stderr)
    return 0 if ok else 1


def _add_spec_options(parser: argparse.ArgumentParser,
                      names: Optional[Container[str]] = None,
                      **defaults: Any) -> None:
    """Generate ``--flag`` options from :class:`LoadtestSpec`'s fields.

    Flag name, type, default, choices, metavar and help all come from the
    field declaration; ``names`` restricts a subcommand to a subset and
    ``defaults`` lets it start from different values.
    """
    hints = get_type_hints(LoadtestSpec)
    for spec_field in dataclasses.fields(LoadtestSpec):
        meta = spec_field.metadata
        if "help" not in meta or (names is not None
                                  and spec_field.name not in names):
            continue
        flag = "--" + spec_field.name.replace("_", "-")
        # Optional[X] -> X; strings (and the chaos plan path) are argparse's
        # own default type.
        kind = next((arg for arg in get_args(hints[spec_field.name])
                     if arg is not type(None)), hints[spec_field.name])
        if kind is bool:
            parser.add_argument(flag, action="store_true", help=meta["help"])
        else:
            parser.add_argument(
                flag, type=kind if kind in (int, float) else None,
                default=defaults.get(spec_field.name, spec_field.default),
                choices=meta["choices"], metavar=meta["metavar"],
                help=meta["help"])


def _loadtest_from_args(args: argparse.Namespace,
                        **overrides: Any) -> Optional[Dict[str, Any]]:
    """Run the load test the parsed options describe.

    A spec the options cannot form, a bad fault plan, an unusable path or a
    failed fleet is reported as one line on stderr and ``None`` (the
    subcommand then exits 2), never a traceback.
    """
    options = {spec_field.name: getattr(args, spec_field.name)
               for spec_field in dataclasses.fields(LoadtestSpec)
               if hasattr(args, spec_field.name)}
    try:
        return run_gateway_loadtest(LoadtestSpec(**{**options, **overrides}))
    except (ValueError, ChaosError, FleetError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return None


def _cmd_gateway_loadtest(args: argparse.Namespace) -> int:
    result = _loadtest_from_args(args)
    if result is None:
        return 2
    if args.json:
        _emit_json(result)
        return 0
    if "workers" in result:
        _print_fleet_tables(result)
        return 0
    metrics = result["metrics"]
    rows = [
        ("tenants", result["tenants"]),
        ("transport", result["transport"]),
        ("arrivals", result["arrivals"]),
        ("simulated seconds", round(result["simulated_seconds"], 2)),
        ("writes committed", metrics["batches"]["writes_committed"]),
        ("write throughput (1/s)", round(result["write_throughput"], 4)),
        ("batches committed", metrics["batches"]["committed"]),
        ("mean batch size", round(metrics["batches"]["mean_size"], 2)),
        ("consensus rounds", metrics["batches"]["consensus_rounds"]),
        ("cache hit rate", round(metrics["cache"]["hit_rate"], 3)),
        ("max queue depth", metrics["queue"]["max_depth"]),
        ("shed requests", metrics["queue"]["shed_requests"]),
        ("admitted during commit", metrics["transport"]["admitted_during_commit"]),
    ]
    durability = metrics.get("durability", {})
    if durability.get("enabled"):
        rows.extend([
            ("journaled responses", durability["responses_journaled"]),
            ("journal WAL bytes", durability["wal_bytes"]),
            ("responses evicted", durability["responses_evicted"]),
        ])
    replication = metrics.get("replication", {})
    if replication.get("enabled"):
        rows.extend([
            ("read replicas", len(replication["replicas"])),
            ("replica-served reads", replication["replica_reads"]),
            ("primary fallbacks", replication["primary_fallbacks"]),
            ("max replica lag (s)", round(max(
                replication["lags"].values(), default=0.0), 3)),
            ("WAL shipments", replication["shipper"]["shipments"]),
            ("WAL entries read / shipped",
             f"{replication['shipper']['entries_read']} / "
             f"{replication['shipper']['entries_shipped']}"),
            ("cache pre-warms", replication["cache_prewarms"]),
        ])
    if "async_transport" in metrics:
        sealed = metrics["async_transport"]["sealed_by"]
        rows.append(("pump seals (depth/deadline/idle/flush)",
                     "/".join(str(sealed[k])
                              for k in ("depth", "deadline", "idle", "flush"))))
    resilience = metrics.get("resilience", {})
    if resilience.get("latency_target") is not None:
        shedder = resilience["shedder"]
        rows.extend([
            ("latency target p99 (s)", resilience["latency_target"]),
            ("windowed p99 (s)", (round(shedder["p99"], 3)
                                  if shedder["p99"] is not None else "-")),
            ("shed by reason", ", ".join(
                f"{reason}={count}" for reason, count in
                resilience["shed_by_reason"].items() if count) or "-"),
        ])
    if "chaos" in result:
        chaos = result["chaos"]
        rows.append(("fault events injected", chaos["fault_events"]))
        rows.append(("messages retransmitted",
                     chaos["transport"]["retransmits"]))
    print(format_table(("metric", "value"), rows, title="Gateway load test"))
    tenant_rows = [
        (tenant, stats["count"], round(stats["mean"], 2), round(stats["p95"], 2))
        for tenant, stats in metrics["tenants"].items()
    ]
    if tenant_rows:
        print()
        print(format_table(("tenant", "requests", "mean latency (s)", "p95 (s)"),
                           tenant_rows, title="Per-tenant latency"))
    if "trace" in result:
        print()
        print(_format_stage_table(result["trace"]))
        if "export_path" in result["trace"]:
            print(f"\nexported {result['trace']['exported_spans']} spans to "
                  f"{result['trace']['export_path']}")
    return 0


def _print_fleet_tables(result: Dict[str, Any]) -> None:
    """Render a ``--processes N`` (N>1) fleet result: totals, then slices."""
    rows = [
        ("placement", result["mode"]),
        ("worker processes", result["processes"]),
        ("tenants (total)", result["tenants"]),
        ("wire codec", result["wire_codec"] or "none (loopback objects)"),
        ("wall seconds", round(result["wall_seconds"], 3)),
        ("writes committed (all workers)", result["committed_writes"]),
        ("aggregate throughput (writes/s wall)",
         round(result["aggregate_throughput"], 2)),
        ("merged simulated clock (s)", round(result["clock"]["merged_now"], 2)),
    ]
    print(format_table(("metric", "value"), rows, title="Gateway fleet"))
    worker_rows = []
    for name in sorted(result["workers"]):
        worker = result["workers"][name]
        metrics = worker["metrics"]
        worker_rows.append((
            name, worker["tenants"],
            metrics["batches"]["writes_committed"],
            round(worker["write_throughput"], 3),
            round(worker["wall_seconds"], 3),
        ))
    print()
    print(format_table(
        ("worker", "tenants", "writes", "sim throughput (1/s)", "wall (s)"),
        worker_rows, title="Per-worker slices"))
    if result["crashes"]:
        print()
        print(format_table(("worker", "exitcode", "state dir"),
                           [(crash["worker"], crash["exitcode"],
                             crash["state_dir"] or "-")
                            for crash in result["crashes"]],
                           title="Crashed workers"))


def _format_stage_table(trace: Dict[str, Any]) -> str:
    """Render a TraceAnalyzer ``to_dict`` stage breakdown as a table."""
    rows = []
    for stage, data in trace["stages"].items():
        names = ", ".join(sorted(data["spans"])) or "-"
        rows.append((stage, data["count"], round(data["sim_self"], 4),
                     round(data["wall_self"] * 1000.0, 3), names))
    return format_table(
        ("stage", "spans", "sim self (s)", "wall self (ms)", "span names"),
        rows, title=f"Pipeline stage self-time ({trace['spans']} spans)")


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace a gateway load test end to end and report where time goes."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-trace-") as state_dir:
        # A durable state_dir makes the WAL stage observable too, so the
        # report covers all five pipeline stages.
        result = _loadtest_from_args(args, trace=True, trace_out=args.out,
                                     state_dir=state_dir)
    if result is None:
        return 2
    trace = result["trace"]
    if args.json:
        _emit_json(trace)
        return 0
    print(_format_stage_table(trace))
    lanes = trace["stages"]["consensus"].get("lanes", {})
    if lanes:
        print()
        print(format_table(
            ("shard", "mines", "sim self (s)"),
            [(shard, lane["count"], round(lane["sim_self"], 4))
             for shard, lane in lanes.items()],
            title="Consensus lanes"))
    path = trace["critical_path"]
    if path:
        print()
        print(format_table(
            ("depth", "span", "trace id", "sim elapsed (s)"),
            [(depth, step["name"], step["trace_id"] or "-",
              round(step["sim_elapsed"], 4))
             for depth, step in enumerate(path)],
            title="Critical path (longest simulated root-to-leaf chain)"))
    if args.out:
        print(f"\nexported {trace['exported_spans']} spans to {args.out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a gateway load test and print the unified registry snapshot."""
    result = _loadtest_from_args(args, registry=True)
    if result is None:
        return 2
    snapshot = result["registry"]
    if args.json:
        _emit_json(snapshot)
        return 0
    counter_rows = [(key, value) for key, value in snapshot["counters"].items()]
    if counter_rows:
        print(format_table(("counter", "value"), counter_rows,
                           title="Counters"))
    gauge_rows = [(key, round(value, 4) if isinstance(value, float) else value)
                  for key, value in snapshot["gauges"].items()]
    if gauge_rows:
        print()
        print(format_table(("gauge", "value"), gauge_rows, title="Gauges"))
    histogram_rows = [
        (key, int(data["summary"]["count"]), round(data["summary"]["p50"], 3),
         round(data["summary"]["p95"], 3), round(data["summary"]["max"], 3))
        for key, data in snapshot["histograms"].items()
    ]
    if histogram_rows:
        print()
        print(format_table(("histogram", "count", "p50 (s)", "p95 (s)", "max (s)"),
                           histogram_rows, title="Histograms"))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a durable database state directory and report how it went."""
    from repro.errors import RelationalError
    from repro.relational.durability import recover

    try:
        result = recover(args.state_dir, fsync_policy=args.fsync_policy)
    except RelationalError as exc:
        print(f"recover: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json(result.to_dict())
        return 0
    database = result.database
    print(format_table(
        ("metric", "value"),
        [("database", database.name),
         ("tables", len(database.table_names)),
         ("total rows", sum(len(database.table(name)) for name in database.table_names)),
         ("views", len(database.view_names)),
         ("checkpoint sequence", result.checkpoint_sequence),
         ("snapshot loaded", result.snapshot_loaded),
         ("entries replayed", result.entries_replayed),
         ("torn entries dropped", result.torn_entries_dropped),
         ("WAL bytes", result.wal_bytes),
         ("checkpoints taken", result.checkpoint_count),
         ("recovery time (s)", round(result.recovery_seconds, 4))],
        title=f"Recovered {database.name!r} from {args.state_dir}"))
    for name in database.table_names:
        print()
        print(database.table(name).pretty(max_rows=5))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Blockchain-based Bidirectional Updates on "
                    "Fine-grained Medical Data' (ICDE 2019)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON result")
        sub.set_defaults(handler=handler)
        return sub

    add_command("scenario", "print the Fig. 1 data distribution", _cmd_scenario)

    update = add_command("update", "run the Fig. 5 researcher update", _cmd_update)
    update.add_argument("--interval", type=float, default=2.0,
                        help="block interval in simulated seconds")

    cascade = add_command("cascade", "run the steps-6-11 cascading dosage update",
                          _cmd_cascade)
    cascade.add_argument("--interval", type=float, default=2.0)

    audit = add_command("audit", "run operations and print the audit trail", _cmd_audit)
    audit.add_argument("--via", default="patient",
                       help="peer whose node replica the trail is read from")

    throughput = add_command("throughput", "measure update throughput", _cmd_throughput)
    throughput.add_argument("--interval", type=float, default=12.0)
    throughput.add_argument("--updates", type=int, default=6)
    throughput.add_argument("--seed", type=int, default=41)

    add_command("exposure", "compare attribute exposure against full-record sharing",
                _cmd_exposure)

    loadtest = add_command("gateway-loadtest",
                           "drive multi-tenant open-loop traffic through the gateway",
                           _cmd_gateway_loadtest)
    _add_spec_options(loadtest)

    soak = add_command(
        "chaos-soak", "run a seeded fault plan against its fault-free "
                      "oracle and verify byte-identical final state",
        _cmd_chaos_soak)
    _add_spec_options(soak, names=("tenants", "interval", "seed"),
                      tenants=4, interval=1.0)
    soak.add_argument("--rounds", type=int, default=12,
                      help="write rounds (one write per tenant per round)")
    soak.add_argument("--plan", default=None, metavar="PLAN",
                      help="fault plan JSON path (default: the built-in "
                           "drops + fsync errors + crash window + slow "
                           "rounds plan)")
    soak.add_argument("--events-out", default=None, metavar="PATH",
                      help="export the faulted run's fault events as JSONL")

    # `trace` and `metrics` run a short load test shaped by four of the
    # spec's options.
    small_run = dict(names=("tenants", "duration", "interval", "seed"),
                     tenants=4, duration=10.0)
    trace_cmd = add_command(
        "trace", "trace a gateway load test: per-stage self-time, lanes, "
                 "critical path", _cmd_trace)
    _add_spec_options(trace_cmd, **small_run)
    trace_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="also export the spans as JSONL to PATH")

    metrics_cmd = add_command(
        "metrics", "run a gateway load test and print the unified metrics "
                   "registry snapshot", _cmd_metrics)
    _add_spec_options(metrics_cmd, **small_run)

    recover_cmd = add_command(
        "recover", "rebuild a durable database from its state directory",
        _cmd_recover)
    recover_cmd.add_argument("state_dir",
                             help="state directory written by Database.checkpoint / "
                                  "a durable WAL backend")
    recover_cmd.add_argument("--fsync-policy", choices=("always", "batch", "never"),
                             default="batch",
                             help="fsync policy for the re-attached WAL backend")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
