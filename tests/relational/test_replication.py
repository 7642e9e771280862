"""WAL-shipping read replicas: segment-boundary shipping edges, bounded
*measured* staleness, crash restarts converging byte-identically, and
diff-driven cache pre-warming."""

from __future__ import annotations

import pytest

from repro.config import (
    ConsensusConfig,
    DurabilityConfig,
    LedgerConfig,
    ReplicationConfig,
    SystemConfig,
)
from repro.gateway import (ReadViewRequest, SharingGateway, UpdateEntryRequest,
                           ViewCache)
from repro.relational.durability import JsonlWalBackend
from repro.relational.replication import (ReadReplica, ReplicaRouter,
                                          ReplicationError)
from repro.relational.wal import WalEntry
from repro.workloads.topology import TopologySpec, build_topology_system


# ---------------------------------------------------------------------------
# Satellite: the truncate / read_entries(since=...) segment-boundary edge.
# Replicas replay from arbitrary cursors, so these are load-bearing.
# ---------------------------------------------------------------------------


def _entry(sequence):
    return WalEntry(sequence, "insert", "t", {"row": {"id": sequence}})


def _backend_with(tmp_path, count, per_segment=2):
    """A backend holding sequences 1..count, ``per_segment`` per segment."""
    line = len(b'{"sequence":1,"operation":"insert","table":"t",'
               b'"payload":{"row":{"id":1}}}\n')
    backend = JsonlWalBackend(tmp_path / "wal",
                              segment_max_bytes=line * per_segment)
    for sequence in range(1, count + 1):
        backend.append(_entry(sequence))
    backend.flush()
    return backend


class TestSegmentBoundaryEdges:
    def test_checkpoint_on_segment_last_entry_deletes_it_exactly(self, tmp_path):
        # Segments: [1,2] [3,4] [5,6] [7] — checkpoint exactly on 4, the
        # last entry of the second segment: both leading segments must go
        # (their contents are fully covered), nothing past 4 may go.
        backend = _backend_with(tmp_path, 7)
        assert len(backend.segment_paths()) == 4
        removed = backend.truncate(4)
        assert removed == 2
        sequences = [e.sequence for e in backend.read_entries()[0]]
        assert sequences == [5, 6, 7]

    @pytest.mark.parametrize("since", range(0, 8))
    def test_read_entries_from_every_boundary_cursor(self, tmp_path, since):
        # Every cursor — mid-segment, on a segment's last entry, at the very
        # end — yields exactly the sequences past it.
        backend = _backend_with(tmp_path, 7)
        entries, torn = backend.read_entries(since=since)
        assert torn == 0
        assert [e.sequence for e in entries] == list(range(since + 1, 8))

    @pytest.mark.parametrize("since", range(0, 8))
    def test_read_entries_after_boundary_truncation(self, tmp_path, since):
        # After a checkpoint lands exactly on a segment boundary, covered
        # cursors read a complete tail and trailing cursors are flagged as
        # uncovered rather than silently shorted.
        backend = _backend_with(tmp_path, 7)
        backend.truncate(4)
        if since >= 4:
            assert backend.covers(since)
            entries, _ = backend.read_entries(since=since)
            assert [e.sequence for e in entries] == list(range(since + 1, 8))
        else:
            # Entries (since, 4] are gone: the tail would be incomplete.
            assert not backend.covers(since)

    def test_covers_on_empty_and_fresh_backends(self, tmp_path):
        backend = JsonlWalBackend(tmp_path / "wal")
        assert backend.first_sequence() is None
        assert backend.covers(0) and backend.covers(10)
        backend.append(_entry(1))
        backend.flush()
        assert backend.first_sequence() == 1
        assert backend.covers(0) and backend.covers(5)

    def test_covers_after_full_truncation(self, tmp_path):
        # A fully-truncated WAL retains nothing, so no cursor can be shorted
        # *by the WAL* — whether the checkpoint superseded the cursor is the
        # manifest's call (the shipper checks it).
        backend = _backend_with(tmp_path, 4)
        backend.truncate(4)
        assert backend.segment_paths() == []
        assert backend.covers(0)

    def test_read_entries_skips_fully_covered_segments(self, tmp_path):
        # The shipping fast path: a cursor deep into the WAL must not
        # re-decode the segments before it.  Equivalence with filtering a
        # full read is the correctness half; the skip itself is observable
        # through covers() + the boundary parametrisation above.
        backend = _backend_with(tmp_path, 20, per_segment=3)
        full = [e.sequence for e in backend.read_entries()[0]]
        for since in (0, 5, 9, 12, 19, 20):
            tail = [e.sequence for e in backend.read_entries(since=since)[0]]
            assert tail == [s for s in full if s > since]


# ---------------------------------------------------------------------------
# Live replicas behind a gateway.
# ---------------------------------------------------------------------------


def build_replicated_gateway(tmp_path, replicas=2, ship_interval=0.0,
                             max_lag=30.0, block_interval=1.0,
                             durability=None, **gateway_kwargs):
    config = SystemConfig(
        ledger=LedgerConfig(
            consensus=ConsensusConfig(kind="poa", block_interval=block_interval)),
        durability=durability or DurabilityConfig(state_dir=str(tmp_path)),
        replication=ReplicationConfig(replicas=replicas,
                                      ship_interval=ship_interval,
                                      max_lag=max_lag),
    )
    system = build_topology_system(TopologySpec(patients=2, researchers=0),
                                   config)
    return SharingGateway(system, **gateway_kwargs), system


def patient_and_mid(system):
    peer = sorted(name for name in system.peer_names
                  if name.startswith("patient"))[0]
    metadata_id = system.peer(peer).agreement_ids[0]
    return peer, metadata_id


def update_for(metadata_id, tag):
    patient_id = int(metadata_id.split(":")[1])
    return UpdateEntryRequest(metadata_id=metadata_id, key=(patient_id,),
                              updates={"clinical_data": tag})


class TestReplicaReads:
    def test_replica_serves_reads_and_writes_stay_primary(self, tmp_path):
        gateway, system = build_replicated_gateway(tmp_path)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        assert gateway.submit(session, update_for(metadata_id, "v1")).status \
            in ("ok", "queued")
        gateway.drain()
        response = gateway.submit(session, ReadViewRequest(metadata_id=metadata_id))
        assert response.status == "ok"
        assert response.payload["replica"] == "replica-0"
        assert response.payload["staleness"] == pytest.approx(0.0)
        rows = {row["clinical_data"]
                for row in response.payload["table"]["rows"]}
        assert "v1" in rows
        metrics = gateway.metrics()["replication"]
        assert metrics["enabled"] and metrics["replica_reads"] == 1

    def test_reads_spread_across_fleet(self, tmp_path):
        gateway, system = build_replicated_gateway(tmp_path, replicas=3)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "v1"))
        gateway.drain()
        served = set()
        for _ in range(6):
            response = gateway.submit(
                session, ReadViewRequest(metadata_id=metadata_id))
            served.add(response.payload["replica"])
        # Deterministic least-loaded routing rotates the service lanes.
        assert served == {"replica-0", "replica-1", "replica-2"}

    def test_requires_durable_peers(self, tmp_path):
        from repro.errors import GatewayError
        with pytest.raises(GatewayError):
            build_replicated_gateway(
                tmp_path, durability=DurabilityConfig(state_dir=None))


class _LaneReplica:
    """A stand-in replica: a service lane, a lag, and a read it may refuse."""

    def __init__(self, name, next_free_at, lag=0.0, refuses=False, tried=None):
        self.name, self.next_free_at = name, next_free_at
        self._lag, self._refuses, self._tried = lag, refuses, tried

    def lag(self, reference):
        return self._lag

    def follows(self, peer):
        return True

    def read_view(self, peer, metadata_id):
        self._tried.append(self.name)
        if self._refuses:
            raise ReplicationError("not replayed yet")
        return "view"

    def reserve(self, now):
        return now, 0.0


class TestRouteOrder:
    """The router serves from the least-busy eligible replica and tries the
    others in ``(next_free_at, name)`` order only when it refuses."""

    def _route(self, *specs, max_lag=30.0):
        from types import SimpleNamespace
        from repro.ledger.clock import SimClock

        tried = []
        replicas = [_LaneReplica(*spec[:2], tried=tried, **spec[2])
                    for spec in specs]
        router = ReplicaRouter(SimpleNamespace(replicas=replicas), SimClock(),
                               max_lag=max_lag)
        return router, router.route("p", "m"), tried

    def test_least_busy_eligible_replica_serves(self):
        _, routed, tried = self._route(("r-a", 3.0, {}), ("r-b", 1.0, {}),
                                       ("r-c", 2.0, {}),
                                       ("r-d", 0.5, {"lag": 99.0}))
        assert routed.replica == "r-b" and tried == ["r-b"]

    def test_equal_lanes_break_ties_by_name(self):
        _, routed, _ = self._route(("r-b", 1.0, {}), ("r-a", 1.0, {}))
        assert routed.replica == "r-a"

    def test_refusal_falls_back_in_lane_order(self):
        _, routed, tried = self._route(("r-c", 2.0, {}),
                                       ("r-a", 1.0, {"refuses": True}),
                                       ("r-d", 3.0, {}), ("r-b", 2.0, {}))
        assert tried == ["r-a", "r-b"]
        assert routed.replica == "r-b"

    def test_every_refusal_goes_to_the_primary(self):
        router, routed, tried = self._route(("r-b", 1.0, {"refuses": True}),
                                            ("r-a", 2.0, {"refuses": True}))
        assert routed is None and tried == ["r-b", "r-a"]
        assert router.primary_fallbacks == 1 and router.replica_reads == 0


class TestMeasuredStaleness:
    def test_lag_equals_commit_minus_replayed_through(self, tmp_path):
        # Property: at every commit boundary, each replica's reported lag is
        # exactly (primary's last commit sim-time − the replica's
        # replayed-through sim-time), measured against an independent oracle.
        gateway, system = build_replicated_gateway(tmp_path, ship_interval=5.0)
        clock = system.simulator.clock
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        for round_number in range(8):
            gateway.submit(session, update_for(metadata_id, f"v{round_number}"))
            gateway.commit_once()
            last_commit = clock.now()  # the oracle's reference point
            assert gateway.replica_router.last_commit_at == pytest.approx(last_commit)
            for replica in gateway.shipper.replicas:
                expected = max(0.0, last_commit - replica.replayed_through)
                assert replica.lag(last_commit) == pytest.approx(expected)
            response = gateway.submit(
                session, ReadViewRequest(metadata_id=metadata_id))
            if "replica" in response.payload:
                staleness = response.payload["staleness"]
                assert 0.0 <= staleness <= 30.0
                serving = next(r for r in gateway.shipper.replicas
                               if r.name == response.payload["replica"])
                assert staleness == pytest.approx(
                    max(0.0, gateway.replica_router.last_commit_at
                        - serving.replayed_through))

    def test_staleness_grows_between_shipments(self, tmp_path):
        gateway, system = build_replicated_gateway(tmp_path, ship_interval=100.0)
        clock = system.simulator.clock
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "v0"))
        gateway.commit_once()  # first shipment is unthrottled
        first_ship = clock.now()
        for round_number in range(3):
            gateway.submit(session, update_for(metadata_id, f"w{round_number}"))
            gateway.commit_once()  # throttled: no shipment
        lag = gateway.shipper.replicas[0].lag(clock.now())
        assert lag == pytest.approx(clock.now() - first_ship)
        assert lag > 0.0

    def test_over_lag_replicas_fall_back_to_primary(self, tmp_path):
        gateway, system = build_replicated_gateway(
            tmp_path, ship_interval=100.0, max_lag=0.5)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "v0"))
        gateway.commit_once()
        for round_number in range(3):  # push lag past max_lag
            gateway.submit(session, update_for(metadata_id, f"w{round_number}"))
            gateway.commit_once()
        response = gateway.submit(session,
                                  ReadViewRequest(metadata_id=metadata_id))
        assert response.status == "ok"
        assert "replica" not in response.payload  # primary served it
        assert gateway.replica_router.primary_fallbacks >= 1
        # The primary's answer is current, not the stale replica view.
        rows = {row["clinical_data"]
                for row in response.payload["table"]["rows"]}
        assert "w2" in rows

    def test_drain_quiesces_fleet_to_zero_lag(self, tmp_path):
        gateway, system = build_replicated_gateway(tmp_path, ship_interval=100.0)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        for round_number in range(4):
            gateway.submit(session, update_for(metadata_id, f"v{round_number}"))
            gateway.commit_once()
        gateway.drain()  # force-ships
        clock = system.simulator.clock
        for replica in gateway.shipper.replicas:
            assert replica.lag(clock.now()) == pytest.approx(0.0)
            assert replica.fingerprints() == system.state_fingerprints()


class TestReplicaRestart:
    def test_restarted_replica_converges_byte_identically(self, tmp_path):
        # A replica crashes mid-stream; its replacement bootstraps from the
        # checkpoint manifest plus the live WAL tail and must converge to
        # the primary's exact fingerprints once shipping resumes.
        gateway, system = build_replicated_gateway(tmp_path, replicas=2)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        for round_number in range(3):
            gateway.submit(session, update_for(metadata_id, f"v{round_number}"))
            gateway.commit_once()
        crashed = gateway.shipper.replicas[1]
        gateway.shipper.detach(crashed)
        replacement = ReadReplica(
            crashed.name, system.simulator.clock,
            lambda p, mid: system.peer(p).agreement(mid).view_name_for(p),
            cache=ViewCache())
        gateway.shipper.attach(replacement)
        assert replacement.bootstraps >= 1
        for round_number in range(3):
            gateway.submit(session, update_for(metadata_id, f"w{round_number}"))
            gateway.commit_once()
        gateway.drain()
        assert replacement.fingerprints() == system.state_fingerprints()

    def test_mid_segment_restart_converges(self, tmp_path):
        # Restart while the active segment is still open (entries past the
        # last checkpoint live only in the WAL tail): the bootstrap replays
        # the live tail, not just the snapshot.
        gateway, system = build_replicated_gateway(tmp_path, replicas=1)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "only"))
        gateway.commit_once()  # no checkpoint configured: WAL tail only
        old = gateway.shipper.replicas[0]
        gateway.shipper.detach(old)
        replacement = ReadReplica(
            "replica-0", system.simulator.clock,
            lambda p, mid: system.peer(p).agreement(mid).view_name_for(p),
            cache=ViewCache())
        gateway.shipper.attach(replacement)
        gateway.drain()
        assert replacement.fingerprints() == system.state_fingerprints()
        assert replacement.fingerprints() == old.fingerprints()

    def test_replica_requires_a_cache(self):
        with pytest.raises(TypeError, match="cache"):
            ReadReplica("r", None, lambda p, mid: "v")

    def test_apply_unknown_peer_raises(self, tmp_path):
        replica = ReadReplica("r", None, lambda p, mid: "v", cache=ViewCache())
        from repro.relational.replication import ShippedBatch
        with pytest.raises(ReplicationError):
            replica.apply(ShippedBatch(peer="ghost", entries=(),
                                       committed_at=0.0))


class TestRebootstrapAcrossCheckpoint:
    def test_lagging_cursor_rebootstraps_after_truncation(self, tmp_path):
        # Checkpoints fire at every commit boundary (1-byte trigger) and
        # truncate the shipped-from WAL while the replica's cursor lags far
        # behind (huge ship interval).  The quiesce shipment must detect the
        # lost tail and re-bootstrap from the manifest — silently shipping
        # the truncated WAL would diverge the replica forever.
        durability = DurabilityConfig(state_dir=str(tmp_path),
                                      checkpoint_wal_bytes=1)
        gateway, system = build_replicated_gateway(
            tmp_path, replicas=1, ship_interval=1000.0, durability=durability)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        for round_number in range(4):
            gateway.submit(session, update_for(metadata_id, f"v{round_number}"))
            gateway.commit_once()
        gateway.drain()
        assert gateway.shipper.rebootstraps >= 1
        replica = gateway.shipper.replicas[0]
        assert replica.fingerprints() == system.state_fingerprints()


class TestCachePrewarm:
    def test_commit_prewarms_primary_cache(self, tmp_path):
        # The long-open cache follow-up: a commit's TableDiff installs the
        # touched views for both peers before any reader asks, so the next
        # read is a hit, not a read-through miss.
        gateway, system = build_replicated_gateway(tmp_path, replicas=0)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "warm"))
        gateway.drain()
        assert gateway.cache.prewarms >= 2  # both peers of the agreement
        counterpart = [name for name
                       in system.peer(peer).agreement(metadata_id).peers
                       if name != peer][0]
        assert gateway.cache.peek(peer, metadata_id) is not None
        assert gateway.cache.peek(counterpart, metadata_id) is not None
        misses_before = gateway.cache.misses
        response = gateway.submit(session,
                                  ReadViewRequest(metadata_id=metadata_id))
        assert response.status == "ok"
        assert gateway.cache.misses == misses_before  # zero read-through
        assert gateway.cache.hits >= 1

    def test_replica_cache_prewarmed_from_shipped_notices(self, tmp_path):
        gateway, system = build_replicated_gateway(tmp_path, replicas=1)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        gateway.submit(session, update_for(metadata_id, "warm"))
        gateway.drain()
        replica = gateway.shipper.replicas[0]
        assert replica.cache.prewarms >= 1
        misses_before = replica.cache.misses
        response = gateway.submit(session,
                                  ReadViewRequest(metadata_id=metadata_id))
        assert response.payload["replica"] == replica.name
        assert replica.cache.misses == misses_before
        assert replica.cache.hits >= 1

    def test_every_replica_read_goes_through_its_cache(self, tmp_path):
        gateway, system = build_replicated_gateway(tmp_path, replicas=2)
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        for round_number in range(3):
            gateway.submit(session, update_for(metadata_id, f"r{round_number}"))
            gateway.drain()
            for _ in range(2):
                gateway.submit(session, ReadViewRequest(metadata_id=metadata_id))
        replicas = gateway.metrics()["replication"]["replicas"]
        assert len(replicas) == 2
        assert sum(stats["reads_served"] for stats in replicas) == 6
        for stats in replicas:
            cache = stats["cache"]
            assert cache["hits"] + cache["misses"] == stats["reads_served"]
            assert cache["prewarms"] > 0
