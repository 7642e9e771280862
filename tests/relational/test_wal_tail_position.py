"""Shipping reads only what was appended: the tail read from a kept position
is ``read_entries(since)`` by another route (equivalence oracle), and its cost
is pinned by counts — decodes, directory listings, file opens — not by time."""

from __future__ import annotations

import builtins
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import run_gateway_loadtest
from repro.config import DurabilityConfig
from repro.errors import WalCorruptionError
from repro.relational import replication
from repro.relational.durability import (
    JsonlWalBackend,
    checkpoint_database,
    open_durable_database,
)
from repro.relational.schema import Column, DataType, Schema
from repro.relational.wal import WalEntry
from tests.relational.test_replication import (
    _entry,
    build_replicated_gateway,
    patient_and_mid,
    update_for,
)


def _line(sequence):
    return (b'{"sequence":%d,"operation":"insert","table":"t",'
            b'"payload":{"row":{"id":%d}}}\n' % (sequence, sequence))


def _write_behind(backend, data):
    """Append raw bytes to the open segment behind the backend's back."""
    backend.flush()
    with open(backend.segment_paths()[-1], "ab") as handle:
        handle.write(data)


class _Reader:
    """What the shipper keeps: one position, handed back on every read, and
    checked against the full read each time."""

    def __init__(self, backend):
        self.backend = backend
        self.position = None

    def read(self, since):
        expected, expected_torn = self.backend.read_entries(since)
        entries, torn, self.position = self.backend.read_tail(
            since, self.position)
        assert [e.to_dict() for e in entries] == [e.to_dict() for e in expected]
        assert torn == expected_torn
        return entries[-1].sequence if entries else since


# One step of the model.  ``slow`` steps read from a second, lagging cursor
# through the same kept position (a late-attached replica: its floor differs
# from the position, so the read must fall back by itself).
_STEPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 9)),
    st.tuples(st.just("truncate"), st.integers(0, 100)),
    st.tuples(st.just("compact"), st.integers(0, 6)),
    st.tuples(st.just("torn"), st.integers(1, 200)),
    st.tuples(st.just("slow"), st.just(0)),
)


class TestTailReadEqualsFullRead:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_STEPS, min_size=1, max_size=25))
    def test_after_every_step(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            # ~400 bytes: a segment rotates every seven entries or so.
            backend = JsonlWalBackend(pathlib.Path(tmp) / "wal",
                                      segment_max_bytes=400)
            reader = _Reader(backend)
            next_sequence, fast, slow, tampered = 1, 0, 0, False
            try:
                for kind, argument in steps:
                    if kind == "append":
                        for _ in range(argument):
                            backend.append(_entry(next_sequence))
                            next_sequence += 1
                    elif kind == "truncate":
                        backend.truncate(argument * (next_sequence - 1) // 100)
                    elif kind == "compact":
                        # The response journal's compaction: the newest
                        # ``argument`` entries, renumbered past the tail.
                        kept = backend.read_entries()[0][-argument:] if argument else []
                        first = next_sequence
                        backend.replace_segments(
                            [_line(first + i) for i in range(len(kept))], first)
                        next_sequence += len(kept)
                    elif kind == "torn" and backend.segment_paths():
                        # A torn write of the next entry, then the rest of it.
                        line = _line(next_sequence)
                        cut = min(argument, len(line) - 1)
                        _write_behind(backend, line[:cut])
                        fast = reader.read(fast)
                        _write_behind(backend, line[cut:])
                        next_sequence += 1
                        tampered = True  # sizes are the backend's own appends
                    elif kind == "slow":
                        if not backend.covers(slow):
                            slow = fast  # re-bootstrapped
                        slow = reader.read(slow)
                    fast = reader.read(fast)
                    assert fast == next_sequence - 1 or not backend.segment_paths()
                    # The backend knows its own segments without listing them.
                    on_disk = sorted((pathlib.Path(tmp) / "wal").glob("wal-*.jsonl"))
                    assert backend.segment_paths() == on_disk
                    backend.flush()
                    assert tampered or backend.wal_bytes() == sum(
                        path.stat().st_size for path in on_disk)
                    assert backend.statistics()["segments"] == len(on_disk)
            finally:
                backend.close()

    def test_checkpoint_rotation_and_a_late_reader_on_a_database(self, tmp_path):
        database = open_durable_database("peer", tmp_path, segment_max_bytes=400)
        database.create_table("t", Schema([Column("id", DataType.INTEGER)],
                                          primary_key=["id"]))
        backend = database.wal.backend
        reader = _Reader(backend)
        cursor = reader.read(0)
        for round_number in range(14):
            for offset in range(5):
                database.insert("t", {"id": round_number * 5 + offset})
            cursor = reader.read(cursor)
            assert cursor == database.wal.last_sequence
            if round_number % 4 == 3:
                checkpoint_database(database, tmp_path)
                cursor = reader.read(cursor)
        assert backend.rotations > 0
        # A replica attached late holds another cursor: the kept position is
        # not its own, and the read falls back without being told to.
        late = backend.first_sequence() + 1
        before = backend.decoded
        assert reader.read(late) == cursor
        assert backend.decoded - before > 2 * (cursor - late)  # oracle + fallback
        database.wal.close()


class TestChecksPastThePosition:
    def _positioned(self, tmp_path):
        backend = JsonlWalBackend(tmp_path / "wal")
        for sequence in (1, 2, 3):
            backend.append(_entry(sequence))
        entries, torn, position = backend.read_tail(0)
        assert [e.sequence for e in entries] == [1, 2, 3] and torn == 0
        assert position[0] == 3
        return backend, position

    def test_corrupt_line_raises(self, tmp_path):
        backend, position = self._positioned(tmp_path)
        _write_behind(backend, b"not json\n" + _line(4))
        with pytest.raises(WalCorruptionError):
            backend.read_tail(3, position)

    def test_out_of_order_line_raises(self, tmp_path):
        backend, position = self._positioned(tmp_path)
        _write_behind(backend, _line(5) + _line(4))
        with pytest.raises(WalCorruptionError):
            backend.read_tail(3, position)

    def test_torn_final_line_is_dropped_and_seen_again_when_completed(self, tmp_path):
        backend, position = self._positioned(tmp_path)
        line = _line(4)
        _write_behind(backend, line[:20])
        entries, torn, position = backend.read_tail(3, position)
        assert (entries, torn) == ([], 1)
        _write_behind(backend, line[20:])
        entries, torn, position = backend.read_tail(3, position)
        assert [e.sequence for e in entries] == [4] and torn == 0
        assert position[0] == 4

    def test_a_position_whose_segment_is_gone_is_ignored(self, tmp_path):
        backend, position = self._positioned(tmp_path)
        backend.replace_segments([_line(4), _line(5)], 4)
        entries, _, position = backend.read_tail(3, position)
        assert [e.sequence for e in entries] == [4, 5]
        backend.truncate(5)
        assert backend.read_tail(5, position) == ([], 0, None)


class TestFlatCost:
    def test_fiftieth_ship_decodes_what_the_first_did(self, tmp_path):
        # 50 ships of k entries into ONE segment: re-reading the open segment
        # made the 50th cost 50x the first.
        k = 7
        backend = JsonlWalBackend(tmp_path / "wal")
        position, cursor, costs = None, 0, []
        for ship in range(50):
            for sequence in range(cursor + 1, cursor + k + 1):
                backend.append(_entry(sequence))
            before = backend.decoded
            entries, _, position = backend.read_tail(cursor, position)
            costs.append(backend.decoded - before)
            cursor = entries[-1].sequence
        assert len(backend.segment_paths()) == 1
        assert costs == [k] * 50

    def test_loadtest_decodes_each_appended_entry_once(self, tmp_path, monkeypatch):
        seen = {"decodes": 0, "listings": 0, "opens": 0, "reads": 0,
                "empty_reads": 0, "appended_at_attach": 0, "shipper": None}
        shipping = []

        def counting(name, original, key):
            def wrapper(*args, **kwargs):
                if shipping:
                    seen[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(*name, wrapper)

        counting((WalEntry, "from_dict"), WalEntry.from_dict, "decodes")
        counting((pathlib.Path, "glob"), pathlib.Path.glob, "listings")
        counting((os, "listdir"), os.listdir, "listings")
        counting((os, "scandir"), os.scandir, "listings")
        counting((builtins, "open"), builtins.open, "opens")

        def appended(shipper):
            return sum(shipper.system.peer(name).database.wal.backend.appends
                       for name in shipper.system.peer_names)

        original_attach = replication.SegmentShipper.attach
        original_ship = replication.SegmentShipper.ship
        original_read = JsonlWalBackend.read_tail

        def attach(self, replica):
            result = original_attach(self, replica)
            seen["shipper"], seen["appended_at_attach"] = self, appended(self)
            return result

        def ship(self, force=False):
            shipping.append(True)
            try:
                return original_ship(self, force)
            finally:
                shipping.pop()

        def read_tail(self, since=0, position=None):
            result = original_read(self, since, position)
            if shipping:
                seen["reads"] += 1
                seen["empty_reads"] += not result[0]
            return result

        monkeypatch.setattr(replication.SegmentShipper, "attach", attach)
        monkeypatch.setattr(replication.SegmentShipper, "ship", ship)
        monkeypatch.setattr(JsonlWalBackend, "read_tail", read_tail)

        result = run_gateway_loadtest(
            tenants=8, duration=90.0, seed=23, replicas=2,
            replica_ship_interval=2.0, read_fraction=0.9,
            state_dir=str(tmp_path))
        stats = result["metrics"]["replication"]["shipper"]
        appended_since_attach = (appended(seen["shipper"])
                                 - seen["appended_at_attach"])
        assert appended_since_attach == 324  # the benchmark's size
        assert seen["decodes"] == stats["entries_read"] == appended_since_attach
        assert stats["entries_shipped"] == 2 * appended_since_attach
        assert stats["rebootstraps"] == 0
        assert seen["listings"] == 0
        # One open per peer that had something new; an idle peer costs none.
        assert seen["empty_reads"] == 0
        assert seen["opens"] == seen["reads"] < 9 * stats["shipments"]
        assert set(result["metrics"]["replication"]["lags"].values()) == {0.0}


class TestRebootstrapDropsThePosition:
    def test_position_is_dropped_with_the_cursor_it_belonged_to(self, tmp_path):
        durability = DurabilityConfig(state_dir=str(tmp_path),
                                      checkpoint_wal_bytes=1)
        gateway, system = build_replicated_gateway(
            tmp_path, replicas=1, ship_interval=1000.0, durability=durability)
        shipper = gateway.shipper
        replica = shipper.replicas[0]
        assert all(replica.follows(name) for name in replica.peer_names)
        assert not replica.follows("nobody")
        rebootstrapped = []
        original = replica.bootstrap
        replica.bootstrap = lambda peer, *args, **kwargs: (
            rebootstrapped.append(peer), original(peer, *args, **kwargs))[1]
        peer, metadata_id = patient_and_mid(system)
        session = gateway.open_session(peer)
        for round_number in range(4):
            gateway.submit(session, update_for(metadata_id, f"v{round_number}"))
            gateway.commit_once()
        gateway.drain()
        assert rebootstrapped and shipper.rebootstraps == len(rebootstrapped)
        assert not set(rebootstrapped) & set(shipper._positions)
        assert replica.fingerprints() == system.state_fingerprints()
        gateway.close()
