"""The argparse front end of ``python -m repro.cli``.

One ``_cmd_*`` handler per subcommand, the ``--flag`` options generated from
:class:`~repro.config.LoadtestSpec`, the report tables, and
:func:`build_parser`.  Only :func:`repro.cli.main` imports this module: a
benchmark segment or a fleet worker that loads :mod:`repro.cli` for its run
engines compiles none of it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Container, Dict, Optional, get_args, get_type_hints

from repro.cli import run_chaos_soak, run_gateway_loadtest
from repro.config import LoadtestSpec, SystemConfig
from repro.errors import ChaosError, FleetError

# The paper-scenario commands import the scenario, the baselines and the
# paper's measures where they run, so the load-test commands load none of them.


def _emit_json(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.core.scenario import (DOCTOR_RESEARCHER_TABLE, PATIENT_DOCTOR_TABLE,
                                     build_paper_scenario)

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
    from repro.core.scenario import DOCTOR_RESEARCHER_TABLE, build_paper_scenario

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
    from repro.core.scenario import CARE_TABLE, STUDY_TABLE, build_extended_scenario

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
    from repro.core.scenario import (DOCTOR_RESEARCHER_TABLE, PATIENT_DOCTOR_TABLE,
                                     build_paper_scenario)

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
    from repro.core.scenario import build_paper_scenario
    from repro.metrics.paper import measure_throughput
    from repro.metrics.reporting import format_table
    from repro.workloads.updates import UpdateStreamGenerator

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
    from repro.baselines.full_record import FullRecordSharingBaseline
    from repro.core.scenario import (DOCTOR_RESEARCHER_TABLE, PATIENT_DOCTOR_TABLE,
                                     build_paper_scenario)
    from repro.metrics.paper import exposure_report
    from repro.metrics.reporting import format_table

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


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    """Run the faulted soak against its fault-free oracle and compare."""
    from repro.metrics.reporting import format_table

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
    from repro.metrics.reporting import format_table

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
    from repro.metrics.reporting import format_table

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
    from repro.metrics.reporting import format_table

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

    from repro.metrics.reporting import format_table

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
    from repro.metrics.reporting import format_table

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
    from repro.metrics.reporting import format_table
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
