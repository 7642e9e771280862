"""The view cache: read-through behaviour and propagation-driven invalidation."""

import pytest

from repro.core.scenario import (
    CARE_TABLE,
    PATIENT_DOCTOR_TABLE,
    STUDY_TABLE,
)
from repro.gateway.cache import ViewCache
from repro.gateway.requests import ReadViewRequest, UpdateEntryRequest
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table


def _table(name="V", rows=((1, "a"),)):
    schema = Schema(columns=(Column("id", DataType.INTEGER, nullable=False),
                             Column("v", DataType.STRING)), primary_key=("id",))
    return Table(name, schema, [{"id": i, "v": v} for i, v in rows])


class TestViewCacheUnit:
    def test_read_through_and_hit_rate(self):
        cache = ViewCache()
        loads = []

        def loader():
            loads.append(1)
            return _table()

        first = cache.get("doctor", "T1", loader)
        second = cache.get("doctor", "T1", loader)
        assert first is second
        assert len(loads) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_entries_are_per_peer(self):
        cache = ViewCache()
        cache.get("doctor", "T1", _table)
        cache.get("patient", "T1", _table)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_invalidate_drops_every_peer_view_of_the_table(self):
        cache = ViewCache()
        cache.get("doctor", "T1", _table)
        cache.get("patient", "T1", _table)
        cache.get("doctor", "T2", _table)
        assert cache.invalidate("T1") == 2
        assert len(cache) == 1
        assert cache.peek("doctor", "T2") is not None
        assert cache.invalidations == 2

    def test_patch_rewrites_only_touched_rows(self):
        from repro.relational.diff import RowChange, TableDiff

        cache = ViewCache()
        cache.get("doctor", "T1", lambda: _table(rows=((1, "a"), (2, "b"))))
        cache.get("patient", "T1", lambda: _table(rows=((1, "a"), (2, "b"))))
        diff = TableDiff("T1", (
            RowChange("update", (1,), {"id": 1, "v": "a"}, {"id": 1, "v": "a2"}, ("v",)),
            RowChange("insert", (3,), None, {"id": 3, "v": "c"}),
        ))
        assert cache.patch("T1", diff) == 2
        assert cache.patches == 2
        for peer in ("doctor", "patient"):
            patched = cache.peek(peer, "T1").table
            assert patched.get((1,))["v"] == "a2"
            assert patched.get((3,))["v"] == "c"
            assert len(patched) == 3
        assert cache.invalidations == 0

    def test_patch_drops_entries_the_diff_conflicts_with(self):
        from repro.relational.diff import RowChange, TableDiff

        cache = ViewCache()
        cache.get("doctor", "T1", lambda: _table(rows=((1, "a"),)))
        conflicting = TableDiff("T1", (
            RowChange("delete", (99,), {"id": 99, "v": "?"}, None),))
        assert cache.patch("T1", conflicting) == 0
        assert cache.peek("doctor", "T1") is None   # dropped, never stale
        assert cache.invalidations == 1

    def test_on_shared_diff_without_diff_invalidates(self):
        cache = ViewCache()
        cache.get("doctor", "T1", _table)
        cache.on_shared_diff("T1", "update", ("doctor", "patient"), None)
        assert cache.peek("doctor", "T1") is None
        assert cache.invalidations == 1


class TestPatchingThroughWorkflow:
    def test_update_patches_both_peers_views_in_place(self, paper_gateway):
        """A committed update hands its TableDiff to the cache, which rewrites
        only the touched rows of both peers' cached views — the entries stay
        resident and the next read is a warm hit on fresh data."""
        gateway = paper_gateway
        doctor = gateway.open_session("doctor")
        patient = gateway.open_session("patient")
        read = ReadViewRequest(PATIENT_DOCTOR_TABLE)
        gateway.submit(doctor, read)
        gateway.submit(patient, read)
        assert len(gateway.cache) == 2
        gateway.submit(doctor, UpdateEntryRequest(
            PATIENT_DOCTOR_TABLE, (188,), {"dosage": "two tablets every 6h"}))
        gateway.drain()
        for peer in ("doctor", "patient"):
            cached = gateway.cache.peek(peer, PATIENT_DOCTOR_TABLE)
            assert cached is not None
            assert cached.table.get((188,))["dosage"] == "two tablets every 6h"
        assert gateway.cache.patches == 2
        # The next read is a *hit* and still sees the committed value.
        hits_before = gateway.cache.hits
        response = gateway.submit(patient, read)
        assert gateway.cache.hits == hits_before + 1
        rows = response.payload["table"]["rows"]
        assert rows[0]["dosage"] == "two tablets every 6h"

    def test_cascaded_propagation_patches_dependent_views(self, extended_gateway):
        """A researcher dosage update cascades STUDY → doctor's D3 → CARE
        (Fig. 5 step 6); the patient's cached CARE view is patched with the
        cascaded diff rather than dropped."""
        gateway = extended_gateway
        researcher = gateway.open_session("researcher")
        patient = gateway.open_session("patient")
        gateway.submit(patient, ReadViewRequest(CARE_TABLE))
        gateway.submit(researcher, ReadViewRequest(STUDY_TABLE))
        assert gateway.cache.peek("patient", CARE_TABLE) is not None
        update = gateway.submit(researcher, UpdateEntryRequest(
            STUDY_TABLE, (188,), {"dosage": "two tablets every 12h"}))
        gateway.drain()
        assert update.ok
        assert CARE_TABLE in update.payload["cascaded_metadata_ids"]
        # Both the updated table's view and the cascaded table's view were
        # patched in place and carry the committed dosage.
        study = gateway.cache.peek("researcher", STUDY_TABLE).table
        assert study.get((188,))["dosage"] == "two tablets every 12h"
        care = gateway.cache.peek("patient", CARE_TABLE).table
        assert care.get((188,))["dosage"] == "two tablets every 12h"
        assert gateway.cache.patches >= 2
        assert gateway.cache.invalidations == 0
        # A warm read sees the cascaded dosage without reloading.
        response = gateway.submit(patient, ReadViewRequest(CARE_TABLE))
        by_id = {row["patient_id"]: row for row in response.payload["table"]["rows"]}
        assert by_id[188]["dosage"] == "two tablets every 12h"


class TestVersions:
    """Each entry is one version: installed by a load, a pre-warm or a
    patch, replaced — never mutated — by the next."""

    def test_read_through_load_is_installed(self):
        cache = ViewCache()
        view = _table()
        installed = cache.get("p", "m", lambda: view)
        assert installed.table is view
        assert cache.peek("p", "m") is installed

    def test_patch_is_copy_on_write(self):
        from repro.relational.diff import diff_tables

        cache = ViewCache()
        held = cache.get("p", "m", lambda: _table(rows=((1, "a"),)))
        diff = diff_tables(_table(rows=((1, "a"),)), _table(rows=((1, "b"),)))
        assert cache.patch("m", diff) == 1
        # The reader's reference still shows the pre-patch snapshot; the
        # cache serves the patched copy as a new version.
        assert held.table.get((1,))["v"] == "a"
        assert cache.peek("p", "m").table.get((1,))["v"] == "b"
        assert cache.peek("p", "m") is not held

    def test_payload_and_json_built_once_per_version(self):
        from repro.relational.diff import diff_tables
        from repro.relational.durability import encode_payload

        cache = ViewCache()
        version = cache.get("p", "m", lambda: _table(rows=((1, "a"),)))
        assert version.table_dict() is version.table_dict()
        assert version.table_dict() == version.table.to_dict()
        assert version.table_json() is version.table_json()
        assert version.table_json() == encode_payload(version.table.to_dict())
        cache.patch("m", diff_tables(_table(rows=((1, "a"),)),
                                     _table(rows=((1, "b"),))))
        patched = cache.peek("p", "m")
        assert patched.table_dict()["rows"] == [{"id": 1, "v": "b"}]
        assert version.table_dict()["rows"] == [{"id": 1, "v": "a"}]


class TestStalenessSemantics:
    """Regression: a clock-less cache must report entry ages as *unknown*
    (None), never 0.0 — an unknown age has to fail a bounded-staleness
    cutoff, not trivially pass it."""

    def test_age_unknown_without_clock(self):
        cache = ViewCache()  # no clock attached
        cached = cache.get("p", "m", _table)
        assert cache.age(cached) is None

    def test_age_unknown_when_installed_before_clock(self):
        from repro.ledger.clock import SimClock

        cache = ViewCache()
        cached = cache.get("p", "m", _table)  # installed clock-less
        cache.clock = SimClock(100.0)
        assert cache.age(cached) is None  # install time was never measured

    def test_age_measured_with_clock(self):
        from repro.ledger.clock import SimClock

        cache = ViewCache()
        clock = SimClock()
        cache.clock = clock
        cached = cache.get("p", "m", _table)
        clock.advance(3.5)
        assert cache.age(cached) == pytest.approx(3.5)


class TestPrewarm:
    def test_prewarm_installs_and_counts(self):
        cache = ViewCache()
        cache.prewarm("p", "m", _table())
        assert cache.peek("p", "m") is not None
        assert cache.prewarms == 1
        assert cache.statistics()["prewarms"] == 1
        assert cache.misses == 0  # never counted as read traffic

    def test_prewarm_replaces_the_version(self):
        cache = ViewCache()
        cache.get("p", "m", lambda: _table(rows=((1, "old"),)))
        installed = cache.prewarm("p", "m", _table(rows=((1, "fresh"),)))
        assert cache.peek("p", "m") is installed
        assert installed.table_dict()["rows"] == [{"id": 1, "v": "fresh"}]
