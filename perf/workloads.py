"""The four benchmark workloads: how each is built, driven and checked.

Every workload is ``setup(seed, size, state_dir) -> context`` (everything up
to the first ``submit``: topology, contracts, sharing, gateway, sessions,
request trace), ``drive(context)`` (the measured part) and ``verify(context)``
(output checks beyond the ones every system gets).  Sizes are fixed: the
contract storage deep-copied per call grows with history, so cost per request
depends on run length and a size change needs a new baseline.  ``smoke``
sizes exist only for ``test_perf_smoke.py``.

Arrivals of the three open-loop workloads are Poisson on the *simulated*
clock (1 request per simulated second per tenant) and are replayed back to
back: simulated latency is the protocol's, wall clock is the program's cost,
and the generator is never late by construction.

The request *schedule* — who sends which kind of request when — belongs to
the workload: it is drawn once, from :data:`SCHEDULE_SEED`.  The benchmark's
``--seed`` draws the *data*: every record of every peer, and so every key and
value the requests carry.  Cost is quadratic in the writes and depends on how
they fall into batches, so a schedule that varied with the seed would make
one seed read 20% slower than the next for the same program.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Any, Dict

#: Writes are committed whenever this many are queued (and at the final drain).
COMMIT_DEPTH = 16
#: Seed of every open-loop request schedule (fleet worker i: this + i).
SCHEDULE_SEED = 23


# ------------------------------------------------------------- open loop


def _open_loop_setup(seed: int, size: Dict[str, Any], config, **gateway_kwargs):
    from repro.gateway import SharingGateway
    from repro.workloads.topology import TopologySpec, build_topology_system
    from repro.workloads.traffic import TrafficGenerator, default_tenant_profiles

    system = build_topology_system(
        TopologySpec(patients=size["tenants"], researchers=0, seed=seed), config)
    gateway = SharingGateway(system, max_batch_size=COMMIT_DEPTH, **gateway_kwargs)
    profiles = default_tenant_profiles(system, request_rate=1.0,
                                       read_fraction=size["read_fraction"])
    clock = system.simulator.clock
    arrivals = TrafficGenerator(system, seed=SCHEDULE_SEED).open_loop(
        profiles, duration=size["duration"], start_time=clock.now())
    sessions = {profile.peer: gateway.open_session(profile.peer)
                for profile in profiles}
    return {"system": system, "gateway": gateway, "arrivals": arrivals,
            "sessions": sessions}


def _open_loop_drive(context) -> None:
    """The loop of ``run_gateway_loadtest``'s sync transport."""
    gateway, sessions = context["gateway"], context["sessions"]
    clock = context["system"].simulator.clock
    for timed in context["arrivals"]:
        clock.advance_to(timed.arrival_time)
        gateway.submit(sessions[timed.tenant], timed.request)
        if gateway.queue_depth >= COMMIT_DEPTH:
            gateway.commit_once()
    gateway.drain()
    gateway.close()


def _no_extra_checks(_context) -> Dict[str, bool]:
    return {}


def care_steady_setup(seed, size, state_dir):
    from repro.config import SystemConfig
    return _open_loop_setup(seed, size, SystemConfig.private_chain(2.0))


# ------------------------------------------------------------- durable


def durable_setup(seed, size, state_dir):
    from repro.config import DurabilityConfig, ReplicationConfig, SystemConfig
    config = dataclasses.replace(
        SystemConfig.private_chain(2.0),
        durability=DurabilityConfig(state_dir=str(state_dir)),
        replication=ReplicationConfig(replicas=2, ship_interval=2.0, max_lag=30.0))
    context = _open_loop_setup(seed, size, config, state_dir=str(state_dir),
                               fsync_policy="batch")
    context["state_dir"] = pathlib.Path(state_dir)
    return context


def durable_verify(context) -> Dict[str, bool]:
    """Crash-recovery and replication oracles: every peer directory recovers
    to the live fingerprints, both replicas equal the primary after the
    drain, and a reopened response journal answers every request id."""
    from repro.gateway.gateway import ResponseJournal
    from repro.relational import durability

    system, gateway = context["system"], context["gateway"]
    system.sync_durability()
    live = system.state_fingerprints()
    recovered = {}
    for name in system.peer_names:
        database = durability.recover(context["state_dir"] / "peers" / name).database
        recovered[name] = {table: database.table(table).fingerprint()
                           for table in sorted(database.table_names)}
    journal = ResponseJournal(context["state_dir"] / "responses")
    try:
        answered = all(journal.lookup(response.request_id) is not None
                       for response in context["responses"])
    finally:
        journal.close()
    return {
        "recover_equals_live": recovered == live,
        "replicas_equal_primary": all(replica.fingerprints() == live
                                      for replica in gateway.shipper.replicas),
        "journal_answers_every_id": answered and bool(context["responses"]),
    }


# ------------------------------------------------------------- cascades


def cascade_setup(seed, size, state_dir):
    from repro.config import (ConsensusConfig, LedgerConfig, NetworkConfig,
                              SystemConfig)
    from repro.gateway import SharingGateway
    from repro.workloads.topology import TopologySpec, build_join_topology_system

    config = SystemConfig(
        ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=2.0),
            max_transactions_per_block=16,
            # 4 data lanes + the reserved control lane 0
            consensus_shards=5),
        network=NetworkConfig(base_latency=0.002, latency_jitter=0.001),
        parallel_cascades=True,
        delta_propagation=True)
    system = build_join_topology_system(
        TopologySpec(patients=size["patients"], researchers=0,
                     distinct_medications=size["medications"], seed=seed,
                     # a base whose per-patient ids spread over the 4 data lanes
                     first_patient_id=1008),
        config)
    gateway = SharingGateway(system, max_batch_size=32)
    # One hospital batch per group of ``legs`` patients.  Fixed groups, not
    # the seed's medication groups: a batch of k edits is a k-leg cascade, and
    # latency percentiles would otherwise follow the seed's group sizes.
    patient_ids = sorted(row["patient_id"]
                         for row in system.peer("doctor").database.table("D3"))
    groups = [patient_ids[at:at + size["legs"]]
              for at in range(0, len(patient_ids), size["legs"])]
    sessions = {patient_id: gateway.open_session(f"patient-{patient_id}")
                for patient_id in patient_ids}
    return {"system": system, "gateway": gateway, "groups": groups,
            "hospital": gateway.open_session("hospital"), "sessions": sessions,
            "rounds": size["rounds"]}


def cascade_drive(context) -> None:
    """Closed loop: submit a group, drain, next group.

    Per round: one batched hospital update per patient group (k same-table
    edits fold into one multi-row diff and one k-leg cascade), every patient
    reads its view, the first patient of each group writes ``clinical_data``
    back through the join's put direction, every patient reads again.
    """
    from repro.gateway import ReadViewRequest, UpdateEntryRequest
    from repro.workloads.topology import HOSPITAL_TABLE_ID

    gateway, sessions = context["gateway"], context["sessions"]

    def read_all() -> None:
        for patient_id, session in sessions.items():
            gateway.submit(session, ReadViewRequest(f"D13&D31:{patient_id}"))

    for round_index in range(context["rounds"]):
        for group_index, patient_ids in enumerate(context["groups"]):
            for patient_id in patient_ids:
                gateway.submit(context["hospital"], UpdateEntryRequest(
                    metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
                    updates={"mechanism_of_action":
                             f"MeA-g{group_index}-r{round_index}"}))
            gateway.drain()
        read_all()
        for patient_ids in context["groups"]:
            patient_id = patient_ids[0]
            gateway.submit(sessions[patient_id], UpdateEntryRequest(
                metadata_id=f"D13&D31:{patient_id}", key=(patient_id,),
                updates={"clinical_data": f"CliD-{patient_id}-r{round_index}"}))
        gateway.drain()
        read_all()
    gateway.close()


# ---------------------------------------------------------------- fleet


def fleet_setup(seed, size, state_dir):
    # Each forked worker builds its own system inside ``run_worker_slice``.
    return {"seed": seed, "size": size}


def fleet_drive(context) -> None:
    from repro.cli import run_gateway_fleet
    from repro.workloads.traffic import TrafficGenerator
    size, base_seed = context["size"], context["seed"]
    construct = TrafficGenerator.__init__

    def with_the_workloads_schedule(self, system, seed=base_seed):
        construct(self, system, seed=SCHEDULE_SEED + seed - base_seed)

    # Worker i builds its topology *and* its traffic from ``seed + i``; pin
    # the traffic half.  The workers inherit this at the fork.
    TrafficGenerator.__init__ = with_the_workloads_schedule
    context["fleet"] = run_gateway_fleet(
        processes=2, tenants=size["tenants"], duration=size["duration"],
        read_fraction=size["read_fraction"], seed=base_seed,
        wire_codec="binary", mode="multiprocess", include_fingerprints=True)


WORKLOADS: Dict[str, Dict[str, Any]] = {
    "care-steady": {
        "why": "baseline block replay on 9 nodes, in memory: contracts, ledger, "
               "crypto and network do the work; reads are warm cache hits",
        "full": {"tenants": 8, "duration": 17.0, "read_fraction": 0.5},
        "smoke": {"tenants": 3, "duration": 6.0, "read_fraction": 0.5},
        "setup": care_steady_setup, "drive": _open_loop_drive, "verify": _no_extra_checks,
    },
    "cascade-fanout": {
        "why": "closed-loop hospital batches fan out as k-leg cascades over "
               "join-backed views on 5 lanes: core, bx deltas, cache patching",
        "full": {"patients": 12, "medications": 3, "legs": 4, "rounds": 3},
        "smoke": {"patients": 4, "medications": 2, "legs": 2, "rounds": 1},
        "setup": cascade_setup, "drive": cascade_drive, "verify": _no_extra_checks,
    },
    "read-mostly-durable": {
        "why": "90% reads served by 2 WAL-shipping replicas beside durable "
               "writes: WAL, fsync, shipper and response journal on the commit path",
        "full": {"tenants": 8, "duration": 90.0, "read_fraction": 0.9},
        "smoke": {"tenants": 3, "duration": 12.0, "read_fraction": 0.9},
        "setup": durable_setup, "drive": _open_loop_drive, "verify": durable_verify,
    },
    "fleet-2proc": {
        "why": "2 forked workers over the binary wire codec: the only real "
               "parallelism and the only work for the runtime layer",
        "full": {"tenants": 16, "duration": 20.0, "read_fraction": 0.5},
        "smoke": {"tenants": 4, "duration": 5.0, "read_fraction": 0.5},
        "setup": fleet_setup, "drive": fleet_drive, "verify": _no_extra_checks,
    },
}
