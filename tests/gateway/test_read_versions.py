"""One cached view version is the unit of read work: its ``to_dict()``
payload is built once and shared by every read of the version, its JSON is
encoded only for a response journal, and a journaled read line is the same
bytes as encoding the whole response."""

from __future__ import annotations

import pytest

from repro.config import (
    ConsensusConfig,
    DurabilityConfig,
    LedgerConfig,
    ReplicationConfig,
    SystemConfig,
)
from repro.core.scenario import (
    DOCTOR_RESEARCHER_TABLE,
    PATIENT_DOCTOR_TABLE,
    build_paper_scenario,
)
from repro.gateway import SharingGateway, cache as cache_module
from repro.gateway.requests import ReadViewRequest, UpdateEntryRequest
from repro.relational.durability import _ENTRY_ENCODER, JsonlWalBackend
from repro.relational.table import Table
from repro.workloads.topology import TopologySpec, build_topology_system


def _paper_gateway(state_dir=None):
    return SharingGateway(build_paper_scenario(SystemConfig.private_chain(1.0)),
                          state_dir=state_dir)


def _replicated_gateway(tmp_path):
    config = SystemConfig(
        ledger=LedgerConfig(consensus=ConsensusConfig(kind="poa",
                                                      block_interval=1.0)),
        durability=DurabilityConfig(state_dir=str(tmp_path)),
        replication=ReplicationConfig(replicas=2))
    system = build_topology_system(TopologySpec(patients=2, researchers=0),
                                   config)
    peer = sorted(name for name in system.peer_names
                  if name.startswith("patient"))[0]
    return SharingGateway(system), peer, system.peer(peer).agreement_ids[0]


def _update_dosage(dosage):
    return UpdateEntryRequest(PATIENT_DOCTOR_TABLE, (188,), {"dosage": dosage})


def _journaled_line(gateway, response) -> bytes:
    path, offset, length = gateway.journal._locations[response.request_id]
    gateway.journal.backend.flush()
    with open(path, "rb") as handle:
        handle.seek(offset)
        return handle.read(length).rstrip(b"\n")


def _assert_journaled_verbatim(gateway, response):
    """The read's line carries exactly the whole response's encoding, and
    the journal answers the same response back."""
    assert response.ok and "table" in response.payload
    payload = _ENTRY_ENCODER.encode(response.to_dict()).encode("utf-8")
    assert _journaled_line(gateway, response).endswith(
        b',"payload":' + payload + b"}")
    recovered = gateway.journal.lookup(response.request_id)
    assert recovered.canonical() == response.canonical()


class TestJournaledReadLines:
    def test_primary_read(self, tmp_path):
        gateway = _paper_gateway(tmp_path)
        doctor = gateway.open_session("doctor")
        for _ in range(2):  # a miss, then a hit on the same version
            response = gateway.submit(doctor,
                                      ReadViewRequest(PATIENT_DOCTOR_TABLE))
            _assert_journaled_verbatim(gateway, response)

    def test_replica_read(self, tmp_path):
        gateway, peer, metadata_id = _replicated_gateway(tmp_path)
        session = gateway.open_session(peer)
        patient_id = int(metadata_id.split(":")[1])
        gateway.submit(session, UpdateEntryRequest(
            metadata_id, (patient_id,), {"clinical_data": "v1"}))
        gateway.drain()
        for _ in range(3):
            response = gateway.submit(session, ReadViewRequest(metadata_id))
            assert response.payload["replica"].startswith("replica-")
            _assert_journaled_verbatim(gateway, response)
        assert "v1" in {row["clinical_data"]
                        for row in response.payload["table"]["rows"]}

    def test_read_after_patch_serves_and_journals_new_rows(self, tmp_path):
        gateway = _paper_gateway(tmp_path)
        doctor = gateway.open_session("doctor")
        before = gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        gateway.submit(doctor, _update_dosage("two tablets every 6h"))
        gateway.drain()
        assert gateway.cache.patches >= 1
        after = gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        _assert_journaled_verbatim(gateway, after)
        assert after.payload["table"]["rows"][0]["dosage"] == \
            "two tablets every 6h"
        assert b"two tablets every 6h" in _journaled_line(gateway, after)
        # The earlier read keeps the version it was served.
        assert before.payload["table"]["rows"][0]["dosage"] != \
            "two tablets every 6h"
        _assert_journaled_verbatim(gateway, before)

    def test_read_after_prewarm(self, tmp_path):
        gateway = _paper_gateway(tmp_path)
        researcher = gateway.open_session("researcher")
        gateway.submit(researcher, UpdateEntryRequest(
            DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
            {"mechanism_of_action": "MeA-prewarmed"}))
        gateway.drain()
        assert gateway.cache.prewarms >= 1
        misses = gateway.cache.misses
        response = gateway.submit(researcher,
                                  ReadViewRequest(DOCTOR_RESEARCHER_TABLE))
        assert gateway.cache.misses == misses  # served the pre-warmed version
        _assert_journaled_verbatim(gateway, response)
        assert b"MeA-prewarmed" in _journaled_line(gateway, response)


@pytest.fixture
def counted(monkeypatch):
    """Counts ``Table.to_dict`` builds, table encodes and whether each
    journal append arrived pre-encoded."""
    counts = {"to_dict": 0, "encode": 0, "spliced": []}
    to_dict, encode = Table.to_dict, cache_module.encode_payload
    append = JsonlWalBackend.append

    def counting_to_dict(self):
        counts["to_dict"] += 1
        return to_dict(self)

    def counting_encode(value):
        counts["encode"] += 1
        return encode(value)

    def recording_append(self, entry, encoded_payload=None):
        if entry.operation == "response":
            counts["spliced"].append(encoded_payload is not None)
        return append(self, entry, encoded_payload)

    monkeypatch.setattr(Table, "to_dict", counting_to_dict)
    monkeypatch.setattr(cache_module, "encode_payload", counting_encode)
    monkeypatch.setattr(JsonlWalBackend, "append", recording_append)
    return counts


class TestOneBuildPerVersion:
    def test_two_reads_share_one_payload_build(self, tmp_path, counted):
        gateway = _paper_gateway(tmp_path)
        doctor = gateway.open_session("doctor")
        first = gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        second = gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        assert first.payload["table"] is second.payload["table"]
        assert counted["to_dict"] == 1
        assert counted["encode"] == 1
        assert counted["spliced"] == [True, True]

    def test_journal_less_read_encodes_nothing(self, counted):
        gateway = _paper_gateway()
        assert gateway.journal is None
        doctor = gateway.open_session("doctor")
        for _ in range(2):
            assert gateway.submit(
                doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE)).ok
        assert counted["to_dict"] == 1
        assert counted["encode"] == 0

    def test_a_new_version_builds_afresh(self, tmp_path, counted):
        gateway = _paper_gateway(tmp_path)
        doctor = gateway.open_session("doctor")
        first = gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        gateway.submit(doctor, _update_dosage("one tablet daily"))
        gateway.drain()
        builds = counted["to_dict"]
        second = gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
        assert second.payload["table"] is not first.payload["table"]
        assert counted["to_dict"] == builds + 1


def test_an_id_spelling_the_mark_is_encoded_whole(tmp_path):
    """The splice needs its mark once in the encoded response; a response
    whose own fields spell it falls back to encoding everything."""
    from repro.gateway.gateway import _TABLE_MARK

    gateway = _paper_gateway(tmp_path)
    doctor = gateway.open_session("doctor")
    response = gateway.submit(doctor, ReadViewRequest(PATIENT_DOCTOR_TABLE))
    version = gateway.cache.peek("doctor", PATIENT_DOCTOR_TABLE)
    response.trace_id = _TABLE_MARK
    gateway.journal.record(response, version)
    _assert_journaled_verbatim(gateway, response)
