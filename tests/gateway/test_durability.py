"""Gateway durability: response journaling, retention-cap eviction, restart
recovery of ``get_response``, and the journal/listener happens-before."""

from __future__ import annotations

import asyncio

import pytest

from repro.config import DurabilityConfig, SystemConfig
from repro.core.scenario import DOCTOR_RESEARCHER_TABLE, build_paper_scenario
from repro.gateway import AsyncSharingGateway, SharingGateway
from repro.gateway.requests import (
    ReadViewRequest,
    UpdateEntryRequest,
)


def _fresh_system():
    return build_paper_scenario(SystemConfig.private_chain(1.0))


def _read():
    return ReadViewRequest(metadata_id=DOCTOR_RESEARCHER_TABLE)


def _update(suffix):
    return UpdateEntryRequest(metadata_id=DOCTOR_RESEARCHER_TABLE,
                              key=("Ibuprofen",),
                              updates={"mechanism_of_action": f"MeA-{suffix}"})


class TestJournaling:
    def test_terminal_responses_reach_the_journal(self, tmp_path):
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path)
        session = gateway.open_session("researcher")
        read = gateway.submit(session, _read())
        write = gateway.submit(session, _update(1))
        gateway.drain()
        for response in (read, write):
            journaled = gateway.journal.lookup(response.request_id)
            assert journaled is not None
            assert journaled.canonical() == response.canonical()
        assert gateway.metrics()["durability"]["responses_journaled"] == 2

    def test_journal_happens_before_terminal_listeners(self, tmp_path):
        """A listener woken by a terminal response must already be able to
        read that response from the WAL (the async transport resolves
        futures there; a future holder may immediately crash-restart)."""
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path)
        session = gateway.open_session("researcher")
        seen = []

        def listener(response):
            seen.append(gateway.journal.lookup(response.request_id) is not None)

        gateway.subscribe_terminal(listener)
        gateway.submit(session, _update(1))
        gateway.drain()
        assert seen and all(seen)

    def test_no_state_dir_means_no_journal(self):
        gateway = SharingGateway(_fresh_system())
        assert gateway.journal is None
        session = gateway.open_session("researcher")
        response = gateway.submit(session, _read())
        assert gateway.get_response(response.request_id) is response
        assert gateway.get_response("req-999999") is None

    def test_metrics_expose_durability_section(self, tmp_path):
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path)
        session = gateway.open_session("researcher")
        gateway.submit(session, _update(1))
        gateway.drain()
        durability = gateway.metrics()["durability"]
        assert durability["enabled"]
        assert durability["responses_journaled"] == 1
        assert durability["wal_bytes"] > 0
        assert durability["journal_syncs"] >= 1
        assert durability["recovery_seconds"] >= 0.0

    def test_config_defaults_flow_from_system(self, tmp_path):
        config = SystemConfig(
            ledger=SystemConfig.private_chain(1.0).ledger,
            durability=DurabilityConfig(state_dir=str(tmp_path / "gw"),
                                        fsync_policy="always",
                                        response_retention=5))
        gateway = SharingGateway(build_paper_scenario(config))
        assert gateway.journal is not None
        assert gateway.fsync_policy == "always"
        assert gateway.max_responses == 5


class TestRetentionCap:
    def test_journaled_terminals_evicted_and_still_answerable(self, tmp_path):
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path,
                                 max_responses=2)
        session = gateway.open_session("researcher")
        responses = [gateway.submit(session, _read()) for _ in range(5)]
        metrics = gateway.metrics()
        assert metrics["durability"]["responses_in_memory"] <= 2
        assert metrics["durability"]["responses_evicted"] >= 3
        for response in responses:
            recovered = gateway.get_response(response.request_id)
            assert recovered is not None
            assert recovered.canonical() == response.canonical()
        # The in-memory store forgot the evicted ones (result() still
        # answers them — it falls back to the journal like get_response).
        assert responses[0].request_id not in gateway._responses
        assert gateway.result(responses[0].request_id) is not None

    def test_queued_writes_never_evicted(self, tmp_path):
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path,
                                 max_responses=1)
        session = gateway.open_session("researcher")
        queued = gateway.submit(session, _update(1))
        for _ in range(3):
            gateway.submit(session, _read())
        assert gateway.result(queued.request_id) is queued  # still in memory
        gateway.drain()
        assert queued.terminal

    def test_unjournaled_gateway_cap_drops(self):
        gateway = SharingGateway(_fresh_system(), max_responses=2)
        session = gateway.open_session("researcher")
        first = gateway.submit(session, _read())
        for _ in range(4):
            gateway.submit(session, _read())
        assert len(gateway._responses) <= 2
        assert gateway.metrics()["durability"]["responses_evicted"] >= 3
        assert gateway.get_response(first.request_id) is None

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            SharingGateway(_fresh_system(), max_responses=0)


def _durable_config(tmp_path, **durability_kwargs):
    return SystemConfig(
        ledger=SystemConfig.private_chain(1.0).ledger,
        durability=DurabilityConfig(state_dir=str(tmp_path / "state"),
                                    **durability_kwargs))


class TestBackgroundMaintenance:
    """WAL-size / sim-time triggered checkpoints and response-journal
    compaction, run inline at the gateway's commit boundaries."""

    def test_wal_size_trigger_checkpoints_peer_databases(self, tmp_path):
        config = _durable_config(tmp_path, checkpoint_wal_bytes=256)
        gateway = SharingGateway(build_paper_scenario(config))
        session = gateway.open_session("researcher")
        for i in range(4):
            gateway.submit(session, _update(i))
            gateway.drain()
        durability = gateway.metrics()["durability"]
        assert durability["checkpoints"] >= 1
        # Checkpointing truncated the covered WAL prefix.
        assert durability["checkpoint_segments_removed"] >= 1

    def test_interval_trigger_checkpoints_on_sim_time(self, tmp_path):
        # block_interval=1.0 advances the simulated clock past 0.5s per
        # drain, so the second commit boundary is due even with a WAL far
        # below any byte threshold.
        config = _durable_config(tmp_path, checkpoint_interval=0.5)
        gateway = SharingGateway(build_paper_scenario(config))
        session = gateway.open_session("researcher")
        gateway.submit(session, _update(1))
        gateway.drain()  # first boundary: baselines the per-peer timer
        gateway.submit(session, _update(2))
        gateway.drain()  # second boundary: >= 0.5 sim-seconds later
        assert gateway.metrics()["durability"]["checkpoints"] >= 1

    def test_crash_window_after_checkpoint_recovers_exactly(self, tmp_path):
        """Writes committed *after* the last checkpoint live only in the WAL
        tail; a crash-restart must replay them on top of the snapshot."""
        config = _durable_config(tmp_path, checkpoint_wal_bytes=256)
        gateway = SharingGateway(build_paper_scenario(config))
        session = gateway.open_session("researcher")
        for i in range(4):
            gateway.submit(session, _update(i))
            gateway.drain()
        assert gateway.metrics()["durability"]["checkpoints"] >= 1
        # The crash window: one more committed write, no checkpoint after
        # (the fresh post-truncate WAL is far below the byte threshold).
        final = gateway.submit(session, _update("final"))
        gateway.drain()
        assert final.ok
        gateway.system.sync_durability()
        # Crash: abandon the gateway/system, recover each peer from disk
        # alone (checkpoint snapshot + WAL-tail replay).
        from repro.relational.durability import recover
        for peer in gateway.system.peers:
            peer_dir = tmp_path / "state" / "peers" / peer.name
            recovered = recover(peer_dir).database
            assert set(recovered.table_names) == set(peer.database.table_names)
            for name in sorted(peer.database.table_names):
                assert (recovered.table(name).fingerprint()
                        == peer.database.table(name).fingerprint()), (
                    f"peer {peer.name} table {name} diverged after recovery")

    def test_journal_compaction_triggers_and_keeps_answerability(self, tmp_path):
        config = _durable_config(tmp_path, journal_compact_bytes=512)
        gateway = SharingGateway(build_paper_scenario(config), max_responses=4)
        session = gateway.open_session("researcher")
        responses = []
        for i in range(8):
            responses.append(gateway.submit(session, _read()))
            responses.append(gateway.submit(session, _update(i)))
            gateway.drain()
        durability = gateway.metrics()["durability"]
        assert durability["journal_compactions"] >= 1
        assert durability["journal_bytes_reclaimed"] > 0
        # The newest ``max_responses`` responses survive compaction — across
        # a crash-restart too (the journal recovers independently of the
        # peer databases).
        restarted = SharingGateway(_fresh_system(),
                                   state_dir=tmp_path / "state",
                                   max_responses=4)
        for response in responses[-4:]:
            recovered = restarted.get_response(response.request_id)
            assert recovered is not None
            assert recovered.canonical() == response.canonical()

    def test_maintenance_disabled_by_default(self, tmp_path):
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path)
        session = gateway.open_session("researcher")
        gateway.submit(session, _update(1))
        gateway.drain()
        durability = gateway.metrics()["durability"]
        assert durability["checkpoints"] == 0
        assert durability["journal_compactions"] == 0
        assert durability["journal_bytes_reclaimed"] == 0


class TestRestartRecovery:
    def test_recovered_gateway_answers_old_request_ids(self, tmp_path):
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path)
        session = gateway.open_session("researcher")
        responses = [gateway.submit(session, _read()),
                     gateway.submit(session, _update(1))]
        gateway.drain()
        responses.append(gateway.submit(session, _read()))
        gateway.close()  # clean shutdown; crash-style restarts live in
        # tests/integration/test_crash_recovery.py

        restarted = SharingGateway(_fresh_system(), state_dir=tmp_path)
        for response in responses:
            recovered = restarted.get_response(response.request_id)
            assert recovered is not None
            assert recovered.canonical() == response.canonical()
        assert restarted.journal.recovered_responses == 3

    def test_request_ids_continue_after_restart(self, tmp_path):
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path)
        session = gateway.open_session("researcher")
        last = gateway.submit(session, _read())
        gateway.close()
        restarted = SharingGateway(_fresh_system(), state_dir=tmp_path)
        fresh = restarted.submit(restarted.open_session("researcher"), _read())
        last_number = int(last.request_id.rsplit("-", 1)[-1])
        fresh_number = int(fresh.request_id.rsplit("-", 1)[-1])
        assert fresh_number == last_number + 1

    def test_async_gateway_state_dir_round_trip(self, tmp_path):
        async def scenario():
            system = _fresh_system()
            async with AsyncSharingGateway(system, state_dir=tmp_path,
                                           idle_timeout=0.01) as front:
                session = front.open_session("researcher")
                response = await front.submit(session, _update(1))
                assert response.ok
                return response

        response = asyncio.run(scenario())
        restarted = SharingGateway(_fresh_system(), state_dir=tmp_path)
        recovered = restarted.get_response(response.request_id)
        assert recovered is not None
        assert recovered.canonical() == response.canonical()


class TestJournalLocations:
    def test_a_location_counts_the_line_without_its_newline(self, tmp_path):
        """``record``, the open-time scan and ``compact`` index a response by
        the same line length, so the index means one thing however it was
        built, and ``lookup`` answers from each."""
        gateway = SharingGateway(_fresh_system(), state_dir=tmp_path)
        session = gateway.open_session("researcher")
        write = gateway.submit(session, _update(1))
        gateway.drain()
        read = gateway.submit(session, _read())
        request_id = read.request_id

        def length_of(journal):
            path, offset, length = journal._locations[request_id]
            journal.backend.flush()
            with open(path, "rb") as handle:
                handle.seek(offset)
                line = handle.read(length + 1)
            assert line.endswith(b"}\n") and len(line) == length + 1
            assert journal.lookup(request_id).canonical() == read.canonical()
            return length

        recorded = length_of(gateway.journal)
        gateway.close()
        reopened = SharingGateway(_fresh_system(), state_dir=tmp_path)
        assert length_of(reopened.journal) == recorded
        # Compaction renumbers the two lines 3 and 4: same digits, same bytes.
        reopened.journal.compact()
        assert length_of(reopened.journal) == recorded
        assert reopened.get_response(write.request_id).canonical() == write.canonical()
