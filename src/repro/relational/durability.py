"""On-disk durability for a peer's database: WAL segments, checkpoints, recovery.

The paper's deployment model keeps each peer's data in its local database;
that only makes sense if the data survives a process restart.  This module
provides the durable substrate:

* :class:`JsonlWalBackend` — an append-only, segmented JSONL mirror of a
  :class:`~repro.relational.wal.WriteAheadLog`.  Each entry is one JSON line;
  segments rotate at a size threshold; an ``fsync_policy`` knob trades
  durability for latency (``always`` fsyncs per append, ``batch`` fsyncs on
  explicit commit boundaries, ``never`` leaves flushing to the OS).
* :func:`checkpoint_database` — an atomic snapshot (temp file +
  ``os.replace`` via :func:`~repro.relational.persistence.save_database`)
  plus WAL truncation that records the checkpoint sequence in a manifest.
* :func:`recover` — loads the latest snapshot and replays the WAL entries
  past the checkpoint to rebuild byte-identical state, tolerating the torn
  tail a crash can leave (and only that).
* :func:`open_durable_database` — create-or-recover convenience entry point.

A crash can interrupt this machinery at any byte offset; the invariants that
make recovery sound:

1. appends go to exactly one (the newest) segment, so a torn write can only
   damage the final line of the final segment;
2. the snapshot and the manifest are each installed with ``os.replace``, so
   readers see either the old or the new checkpoint, never a torn one;
3. segments are deleted only *after* the manifest records the checkpoint
   that supersedes them, so a crash mid-checkpoint leaves a recoverable
   (old-checkpoint + longer-WAL) state.

A backend is the only writer of its directory: it lists it once, at open,
and afterwards knows its segments and their bytes (they change only at a
rotation, in ``truncate`` and in ``replace_segments``).  A reader following
the log (the replica shipper) may keep the :data:`TailPosition` a
:meth:`JsonlWalBackend.read_tail` handed back; nobody builds one.  A position
is ignored — the read starts from the segment list — when its sequence is
not the cursor presented with it or its segment was removed; a rotation
does not invalidate it.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import RecoveryError, WalCorruptionError
from repro.chaos import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.relational.database import Database
from repro.relational.diff import TableDiff
from repro.relational.predicates import Predicate
from repro.relational.schema import Schema
from repro.relational.wal import WalEntry, WriteAheadLog

PathLike = Union[str, pathlib.Path]

#: Where a tailing reader stopped: ``(last sequence, segment, byte offset)``.
TailPosition = Tuple[int, pathlib.Path, int]

#: fsync once per appended entry — maximal durability, maximal latency.
FSYNC_ALWAYS = "always"
#: fsync on explicit :meth:`JsonlWalBackend.sync` calls (commit boundaries).
FSYNC_BATCH = "batch"
#: never fsync explicitly; flush to the OS and let it schedule the write.
FSYNC_NEVER = "never"

FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_NEVER)

#: Manifest file name inside a state directory.
MANIFEST_NAME = "checkpoint.json"
#: Sub-directory holding the WAL segments.
WAL_DIR_NAME = "wal"
#: Segment file pattern: ``wal-<first sequence, 16 digits>.jsonl``.
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"

MANIFEST_VERSION = 1

#: One shared encoder for the append hot path — ``json.dumps`` with custom
#: keyword arguments builds a fresh ``JSONEncoder`` per call, a measurable
#: tax on a path that rides every logged mutation.
_ENTRY_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)

#: ``_ENTRY_ENCODER``'s C encoder, built once: ``JSONEncoder.encode`` builds
#: a fresh one per call (~2 µs).  No circular-reference check — payloads
#: are trees built from rows.  ``None`` where ``_json`` is unavailable.
_C_ENCODER = (None if c_make_encoder is None
              else c_make_encoder(None, str, encode_basestring_ascii, None,
                                  ":", ",", False, False, True))


def encode_payload(value: Any) -> bytes:
    """``value`` as a WAL line spells it: the bytes :meth:`JsonlWalBackend.append`
    writes for a payload, so a caller may encode one ahead and pass it in."""
    if _C_ENCODER is None:
        return _ENTRY_ENCODER.encode(value).encode("utf-8")
    return "".join(_C_ENCODER(value, 0)).encode("utf-8")

#: JSON-escaped-and-encoded operation/table names, cached — both repeat
#: endlessly (a handful of operations, a few table names per database), so
#: the envelope of each WAL line can be assembled from pre-encoded pieces
#: and only the payload goes through the JSON encoder.
_NAME_CACHE: Dict[str, bytes] = {}


def _encoded_name(name: str) -> bytes:
    cached = _NAME_CACHE.get(name)
    if cached is None:
        if len(_NAME_CACHE) > 4096:  # defensive bound; names are few
            _NAME_CACHE.clear()
        cached = _NAME_CACHE[name] = json.dumps(name).encode("utf-8")
    return cached


def _validate_policy(fsync_policy: str) -> str:
    if fsync_policy not in FSYNC_POLICIES:
        raise ValueError(
            f"unknown fsync policy {fsync_policy!r}; use one of {FSYNC_POLICIES}")
    return fsync_policy


class JsonlWalBackend:
    """Append-only JSONL mirror of a WAL, segmented and crash-tolerant."""

    def __init__(self, directory: PathLike, fsync_policy: str = FSYNC_BATCH,
                 segment_max_bytes: int = 1_000_000):
        if segment_max_bytes <= 0:
            raise ValueError("segment_max_bytes must be positive")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = _validate_policy(fsync_policy)
        self.segment_max_bytes = segment_max_bytes
        self._handle = None
        self._current: Optional[pathlib.Path] = None
        self._current_bytes = 0
        self.appends = 0
        self.syncs = 0
        self.rotations = 0
        #: Swapped for a real tracer by the gateway / system; ``wal.append``
        #: and ``wal.fsync`` spans account the durability stage's time.
        self.tracer = NULL_TRACER
        #: Chaos hooks (no-ops by default): ``wal.append`` / ``wal.fsync``
        #: faults are probed *before* any bytes are written, so a retry
        #: never duplicates an entry; the optional retrier absorbs injected
        #: (and real) transient ``OSError``s with deterministic backoff.
        self.injector = NULL_INJECTOR
        self.retrier = None
        self.fault_target = self.directory.name
        #: Torn final lines amputated when this backend (re)opened the
        #: directory — a restarted writer must never append onto a partial
        #: line, or the concatenated garbage swallows the new entry (or
        #: poisons the stream with mid-file corruption).
        self.torn_lines_repaired = 0
        #: Entries decoded by reads — what a read cost, next to ``appends``.
        self.decoded = 0
        #: The ordered segment files (the one listing of the directory) and
        #: the bytes in all but the open one.
        self._segments: List[pathlib.Path] = sorted(
            self.directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"))
        self._sealed_bytes = 0
        #: Sequence of the last entry this instance appended (``None``: none).
        self._last_appended: Optional[int] = None
        if self._segments:
            self._current = self._segments[-1]
            self._repair_torn_tail(self._current)
            self._adopt_sizes()

    def _repair_torn_tail(self, segment: pathlib.Path) -> None:
        """Truncate ``segment`` back to its last complete line.

        Lines contain no raw newlines (the encoder escapes them), so a file
        not ending in ``\\n`` ends in a torn write; everything after the last
        newline is the torn tail a crash left.
        """
        data = segment.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when the segment is one torn line
        with open(segment, "r+b") as handle:
            handle.truncate(keep)
        self.torn_lines_repaired += 1

    # ------------------------------------------------------------------ layout

    def _segment_name(self, first_sequence: int) -> str:
        return f"{SEGMENT_PREFIX}{first_sequence:016d}{SEGMENT_SUFFIX}"

    def segment_paths(self) -> List[pathlib.Path]:
        """All segment files, ordered by their first sequence number."""
        return list(self._segments)

    def _adopt_sizes(self) -> None:
        """Re-read the segment sizes after the files changed under us."""
        sizes = [path.stat().st_size for path in self._segments]
        self._current_bytes = sizes.pop() if sizes else 0
        self._sealed_bytes = sum(sizes)

    def wal_bytes(self) -> int:
        """Total bytes appended to the retained segments (buffered included)."""
        return self._sealed_bytes + self._current_bytes

    def statistics(self) -> Dict[str, Any]:
        return {
            "directory": str(self.directory),
            "fsync_policy": self.fsync_policy,
            "segments": len(self._segments),
            "wal_bytes": self.wal_bytes(),
            "appends": self.appends,
            "syncs": self.syncs,
            "rotations": self.rotations,
        }

    # ----------------------------------------------------------------- appends

    def append(self, entry: WalEntry, encoded_payload: Optional[bytes] = None
               ) -> Tuple[pathlib.Path, int, int]:
        """Append one entry as a JSON line (rotating segments as needed).

        ``encoded_payload``, when given, must be
        ``encode_payload(entry.payload)``; the line is then assembled around
        it without encoding the payload again (the response journal splices
        a read's pre-encoded table that way).

        Returns the entry's location ``(segment_path, offset, length)`` so
        callers that need random access later (the gateway's response
        journal) can index it instead of rescanning the log.
        """
        # The line's envelope is assembled from pre-encoded pieces and only
        # the payload runs through the JSON encoder (null transaction ids
        # omitted): this path rides every logged database mutation, so each
        # avoidable microsecond shows up directly in the fsync-policy
        # overhead bench.  The result is a plain JSON object line, identical
        # to what ``json.dumps(entry.to_dict())`` would produce.
        tail = (b"}\n" if entry.transaction_id is None
                else b',"transaction_id":%d}\n' % entry.transaction_id)
        data = (b'{"sequence":%d,"operation":%s,"table":%s,"payload":%s'
                % (entry.sequence, _encoded_name(entry.operation),
                   _encoded_name(entry.table),
                   encode_payload(entry.payload) if encoded_payload is None
                   else encoded_payload)) + tail
        with self.tracer.span("wal.append", table=entry.table,
                              bytes=len(data)):
            if self.retrier is not None:
                return self.retrier.call(
                    lambda: self._append(entry, data),
                    label="wal.append")
            return self._append(entry, data)

    def _append(self, entry: WalEntry,
                       data: bytes) -> Tuple[pathlib.Path, int, int]:
        # Fault probes come first: an injected disk error leaves no bytes
        # behind, so the retrier can safely re-run this whole body.
        self.injector.maybe_fail("wal.append", self.fault_target)
        if self.fsync_policy == FSYNC_ALWAYS:
            self.injector.maybe_fail("wal.fsync", self.fault_target)
        if (self._current is not None
                and self._current_bytes >= self.segment_max_bytes):
            self._close_handle()
            self._sealed_bytes += self._current_bytes
            self._current = None
            self.rotations += 1
        if self._handle is None:
            if self._current is None:
                self._current = self.directory / self._segment_name(entry.sequence)
            self._handle = open(self._current, "ab")
            if self._segments[-1:] != [self._current]:
                self._segments.append(self._current)
            self._current_bytes = self._current.stat().st_size
        location = (self._current, self._current_bytes, len(data))
        self._handle.write(data)
        # Only the per-append policy pays a syscall here; ``batch`` and
        # ``never`` leave the line in the userspace buffer until the next
        # commit boundary (sync/rotation/close) or read flushes it.
        if self.fsync_policy == FSYNC_ALWAYS:
            with self.tracer.span("wal.fsync", policy=self.fsync_policy):
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self.syncs += 1
        self._current_bytes += len(data)
        self._last_appended = entry.sequence
        self.appends += 1
        return location

    def flush(self) -> None:
        """Push buffered appends to the OS (no fsync) so readers see them."""
        if self._handle is not None:
            self._handle.flush()

    def sync(self) -> None:
        """Flush and fsync the active segment (a commit boundary).

        Under ``never`` the buffer is still flushed to the OS (so other
        readers observe the entries) but the fsync is skipped.
        """
        with self.tracer.span("wal.fsync", policy=self.fsync_policy):
            if self._handle is None:
                return
            if self.retrier is not None:
                self.retrier.call(self._sync, label="wal.fsync")
            else:
                self._sync()

    def _sync(self) -> None:
        # Probe-then-act keeps the body idempotent under retries: re-running
        # the flush/fsync pair after an injected failure is harmless.
        self.injector.maybe_fail("wal.fsync", self.fault_target)
        self._handle.flush()
        if self.fsync_policy != FSYNC_NEVER:
            os.fsync(self._handle.fileno())
            self.syncs += 1

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync_policy != FSYNC_NEVER:
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        self._close_handle()

    # ------------------------------------------------------------------- reads

    def _segment_first_sequence(self, segment: pathlib.Path) -> int:
        """The first sequence a segment holds, read from its file name."""
        return int(segment.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])

    def first_sequence(self) -> Optional[int]:
        """The first sequence still retained on disk (``None`` when empty)."""
        return (self._segment_first_sequence(self._segments[0])
                if self._segments else None)

    def covers(self, since: int) -> bool:
        """Whether ``read_entries(since=since)`` would see *every* entry
        past ``since`` that was ever appended.

        ``False`` means a checkpoint truncated segments the cursor still
        needed: entries in ``(since, checkpoint]`` are gone from the WAL,
        so a tail read from ``since`` would be silently incomplete.  A
        shipping reader (replica cursor) must then re-bootstrap from the
        checkpoint manifest instead of replaying the tail.  An empty WAL
        trivially covers any cursor — there is nothing retained to miss;
        whether the *checkpoint* superseded the cursor is the log's call
        (``WriteAheadLog.checkpoint_sequence``), not the backend's.
        """
        first = self.first_sequence()
        return first is None or first <= since + 1

    def tail_position(self) -> Optional[TailPosition]:
        """Where a reader that holds every entry appended so far stands —
        known without touching the files once this instance has appended
        (``None`` before that)."""
        if self._last_appended is None:
            return None
        return (self._last_appended, self._current, self._current_bytes)

    def read_entries(self, since: int = 0) -> Tuple[List[WalEntry], int]:
        """All decodable entries with sequence > ``since``, in order.

        Returns ``(entries, torn_lines_dropped)``.  A crash can tear at most
        the final line of the final segment, so exactly that line may fail to
        decode and is dropped; an undecodable or out-of-order line anywhere
        else raises :class:`~repro.errors.WalCorruptionError`.

        Callers resuming from a cursor (``since > 0``) must check
        :meth:`covers` first: if truncation already removed entries past the
        cursor, the tail returned here is *incomplete*, not erroneous.
        """
        entries, torn, _ = self.read_tail(since)
        return entries, torn

    def read_tail(self, since: int = 0, position: Optional[TailPosition] = None,
                  ) -> Tuple[List[WalEntry], int, Optional[TailPosition]]:
        """:meth:`read_entries` for a reader that keeps its place.

        Also returns the position the read stopped at (``None`` when there
        is no segment).  Handed back with ``since`` equal to its sequence, it
        makes the next read seek there and decode only what was appended
        since, under the same per-line checks (locations in errors read
        ``segment+byte offset:line``); any other position is ignored.  It
        sits in front of an unterminated final line, so a torn write is seen
        again once completed.
        """
        # Buffered appends (batch/never policies) must be visible to the
        # read — a journaled-then-evicted response is answerable even
        # before the next fsync boundary.
        if self._handle is not None:
            self._handle.flush()
        segments = list(self._segments)
        start = offset = 0
        if (position is not None and position[0] == since
                and position[1] in segments):
            start, offset = segments.index(position[1]), position[2]
        else:
            # Skip whole segments that cannot hold entries past ``since``:
            # every entry in a non-final segment precedes its successor's
            # first sequence (same covering rule as truncation).
            for index in range(len(segments) - 1):
                if self._segment_first_sequence(segments[index + 1]) - 1 <= since:
                    start = index + 1
                else:
                    break
        entries: List[WalEntry] = []
        torn = decoded = 0
        last_sequence = since
        final_segment = len(segments) - 1
        for segment_index, segment in enumerate(segments[start:], start):
            with open(segment, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
            records = data.split(b"\n")
            # An unterminated final line is decoded like any other, but the
            # position stays in front of it.
            resume_at = offset + len(data) - len(records[-1])
            if not records[-1]:
                records.pop()
            for record_index, raw in enumerate(records):
                try:
                    entry = WalEntry.from_dict(json.loads(raw.decode("utf-8")))
                except Exception as exc:
                    if (segment_index == final_segment
                            and record_index == len(records) - 1):
                        torn += 1
                        break
                    raise WalCorruptionError(
                        f"undecodable WAL entry at {segment.name}+{offset}:"
                        f"{record_index + 1}") from exc
                decoded += 1
                if entries and entry.sequence <= last_sequence:
                    raise WalCorruptionError(
                        f"out-of-order WAL entry {entry.sequence} after "
                        f"{last_sequence} at {segment.name}+{offset}:"
                        f"{record_index + 1}")
                last_sequence = entry.sequence
                if entry.sequence > since:
                    entries.append(entry)
            offset = 0
        self.decoded += decoded
        if not segments:
            return entries, torn, None
        return entries, torn, (last_sequence, segments[-1], resume_at)

    # --------------------------------------------------------------- truncation

    def truncate(self, checkpoint_sequence: int) -> int:
        """Delete segments holding only entries ≤ ``checkpoint_sequence``.

        Returns the number of segments removed.  Called after the manifest
        already records the checkpoint, so losing these files is safe; a
        segment straddling the boundary is kept whole (recovery skips the
        already-checkpointed prefix by sequence).
        """
        removed = 0
        self._close_handle()
        segments = list(self._segments)
        for index, segment in enumerate(segments):
            if index + 1 < len(segments):
                # All entries here precede the next segment's first
                # sequence, readable from its file name.  Sequences are
                # contiguous, so this segment's last entry *is*
                # ``next_first - 1``: a checkpoint landing exactly on a
                # segment's last entry covers it exactly (deleted), and
                # the surviving successor starts at checkpoint + 1 — a
                # replayer resuming from ``since == checkpoint`` still
                # sees every later entry.  Cursors *behind* the
                # checkpoint lose their tail here; they must detect that
                # via ``covers()`` and re-bootstrap from the manifest.
                next_first = self._segment_first_sequence(segments[index + 1])
                fully_covered = next_first - 1 <= checkpoint_sequence
            else:
                last = self._last_sequence_in(segment)
                fully_covered = last is not None and last <= checkpoint_sequence
            if fully_covered:
                segment.unlink()
                del self._segments[0]
                removed += 1
            else:
                break
        self._current = self._segments[-1] if self._segments else None
        self._adopt_sizes()
        return removed

    def replace_segments(self, lines: List[bytes],
                         first_sequence: int) -> pathlib.Path:
        """Atomically replace every segment with one new segment holding
        ``lines`` (already encoded, newline-terminated).

        The compaction primitive of the gateway's response journal.
        Crash-safe ordering: the new segment lands complete (temp file +
        ``os.replace``) *before* the old segments are unlinked, so a crash
        anywhere in between leaves either the old segments or the old
        segments plus the finished new one — never a torn rewrite.
        ``first_sequence`` must exceed every sequence already on disk so the
        new segment sorts (and reads) after the survivors of a partial
        crash.
        """
        self._close_handle()
        old = self._segments
        target = self.directory / self._segment_name(first_sequence)
        tmp = target.with_suffix(target.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            for line in lines:
                handle.write(line)
            handle.flush()
            if self.fsync_policy != FSYNC_NEVER:
                os.fsync(handle.fileno())
                self.syncs += 1
        os.replace(tmp, target)
        for segment in old:
            if segment != target:
                segment.unlink()
        self.rotations += 1
        self._segments = [target]
        self._current = target
        self._adopt_sizes()
        return target

    def _last_sequence_in(self, segment: pathlib.Path) -> Optional[int]:
        last: Optional[int] = None
        for raw in segment.read_bytes().split(b"\n"):
            if not raw:
                continue
            try:
                last = int(json.loads(raw.decode("utf-8"))["sequence"])
            except (ValueError, KeyError, UnicodeDecodeError):
                break  # torn tail; entries before it still count
        return last


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _manifest_path(state_dir: pathlib.Path) -> pathlib.Path:
    return state_dir / MANIFEST_NAME


def read_manifest(state_dir: PathLike) -> Optional[Dict[str, Any]]:
    """The checkpoint manifest of a state directory, or None when absent."""
    path = _manifest_path(pathlib.Path(state_dir))
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise RecoveryError(f"unreadable manifest at {path}") from exc
    if payload.get("manifest_version") != MANIFEST_VERSION:
        raise RecoveryError(
            f"unsupported manifest version {payload.get('manifest_version')!r}")
    return payload


def _write_manifest(state_dir: pathlib.Path, payload: Dict[str, Any]) -> None:
    # Snapshots (``persistence``) load with the first durable database.
    from repro.relational.persistence import atomic_write_text

    payload = dict(payload, manifest_version=MANIFEST_VERSION)
    atomic_write_text(_manifest_path(state_dir),
                      json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointResult:
    """What one checkpoint did."""

    checkpoint_sequence: int
    snapshot_path: pathlib.Path
    segments_removed: int
    checkpoint_count: int
    wal_bytes: int

    def to_dict(self) -> dict:
        return {
            "checkpoint_sequence": self.checkpoint_sequence,
            "snapshot_path": str(self.snapshot_path),
            "segments_removed": self.segments_removed,
            "checkpoint_count": self.checkpoint_count,
            "wal_bytes": self.wal_bytes,
        }


def checkpoint_database(database: Database, state_dir: PathLike) -> CheckpointResult:
    """Atomically snapshot ``database`` into ``state_dir`` and truncate its WAL.

    The snapshot lands via temp-file + ``os.replace`` (a crash mid-write
    never corrupts the previous snapshot), the manifest records the
    checkpoint sequence, and only then are fully-covered WAL segments
    deleted.  Recovery = the manifest's snapshot + the WAL entries past its
    ``checkpoint_sequence``.
    """
    from repro.relational.persistence import save_database

    state_path = pathlib.Path(state_dir)
    state_path.mkdir(parents=True, exist_ok=True)
    sequence = database.wal.last_sequence
    previous = read_manifest(state_path) or {}
    database.wal.sync()  # entries being truncated must be durable first
    snapshot_name = f"snapshot-{sequence:016d}.json"
    save_database(database, state_path / snapshot_name)
    _write_manifest(state_path, {
        "name": database.name,
        "checkpoint_sequence": sequence,
        "snapshot": snapshot_name,
        "checkpoints": int(previous.get("checkpoints", 0)) + 1,
    })
    # The manifest now supersedes older snapshots and covered segments.
    for stale in state_path.glob("snapshot-*.json"):
        if stale.name != snapshot_name:
            stale.unlink()
    backend = database.wal.backend
    segments_before = len(backend.segment_paths()) if backend is not None else 0
    database.wal.truncate(sequence)  # a backend also drops covered segments
    segments_after = len(backend.segment_paths()) if backend is not None else 0
    return CheckpointResult(
        checkpoint_sequence=sequence,
        snapshot_path=state_path / snapshot_name,
        segments_removed=segments_before - segments_after,
        checkpoint_count=int(previous.get("checkpoints", 0)) + 1,
        wal_bytes=backend.wal_bytes() if backend is not None else 0,
    )


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


@dataclass
class RecoveryResult:
    """A recovered database plus how the recovery went."""

    database: Database
    checkpoint_sequence: int
    snapshot_loaded: bool
    entries_replayed: int
    torn_entries_dropped: int
    recovery_seconds: float
    wal_bytes: int
    checkpoint_count: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.database.name,
            "tables": {name: len(self.database.table(name))
                       for name in sorted(self.database.table_names)},
            "views": sorted(self.database.view_names),
            "checkpoint_sequence": self.checkpoint_sequence,
            "snapshot_loaded": self.snapshot_loaded,
            "entries_replayed": self.entries_replayed,
            "torn_entries_dropped": self.torn_entries_dropped,
            "recovery_seconds": self.recovery_seconds,
            "wal_bytes": self.wal_bytes,
            "checkpoint_count": self.checkpoint_count,
        }


def replay_entry(database: Database, entry: WalEntry) -> None:
    """Re-apply one logged operation to ``database`` (without re-logging it)."""
    payload = entry.payload
    operation = entry.operation
    if operation == "create_table":
        database.create_table(entry.table, Schema.from_dict(payload["schema"]),
                              payload.get("row_data", ()))
    elif operation == "drop_table":
        database.drop_table(entry.table)
    elif operation == "insert":
        database.insert(entry.table, payload["row"])
    elif operation == "update":
        if "key" in payload:
            database.update_by_key(entry.table, payload["key"], payload["updates"])
        else:
            database.update_where(entry.table,
                                  Predicate.from_dict(payload["predicate"]),
                                  payload["updates"])
    elif operation == "delete":
        if "key" in payload:
            database.delete_by_key(entry.table, payload["key"])
        else:
            database.delete_where(entry.table,
                                  Predicate.from_dict(payload["predicate"]))
    elif operation == "replace":
        if "row_data" not in payload:
            raise RecoveryError(
                f"replace entry {entry.sequence} for table {entry.table!r} "
                f"carries no row data (written by a pre-durability build?)")
        database.replace_table(entry.table, payload["row_data"])
    elif operation == "apply_diff":
        if "diff" not in payload:
            raise RecoveryError(
                f"apply_diff entry {entry.sequence} for table {entry.table!r} "
                f"carries no diff payload")
        database.apply_table_diff(entry.table, TableDiff.from_dict(payload["diff"]))
    elif operation == "create_index":
        database.create_index(entry.table, payload["columns"])
    elif operation == "register_view":
        from repro.relational.query import Query

        database.register_view(entry.table, Query.from_dict(payload["query"]))
    else:
        raise RecoveryError(
            f"cannot replay unknown WAL operation {operation!r} "
            f"(sequence {entry.sequence})")


def recover(state_dir: PathLike, fsync_policy: str = FSYNC_BATCH,
            segment_max_bytes: int = 1_000_000) -> RecoveryResult:
    """Rebuild a database from a durable state directory.

    Loads the manifest's snapshot (if any), replays every WAL entry past the
    checkpoint sequence, and re-attaches a live backend so the recovered
    database keeps journaling where the crashed process stopped.  The torn
    tail a crash can leave (one partial final line) is dropped; real
    corruption raises.
    """
    started = time.perf_counter()
    state_path = pathlib.Path(state_dir)
    if not state_path.exists():
        raise RecoveryError(f"no state directory at {state_path}")
    manifest = read_manifest(state_path)
    if manifest is None:
        raise RecoveryError(
            f"no manifest at {_manifest_path(state_path)}; not a durable "
            f"state directory")
    checkpoint_sequence = int(manifest.get("checkpoint_sequence", 0))
    snapshot_name = manifest.get("snapshot")
    snapshot_loaded = False
    if snapshot_name:
        snapshot_path = state_path / snapshot_name
        if not snapshot_path.exists():
            raise RecoveryError(f"manifest names missing snapshot {snapshot_path}")
        from repro.relational.persistence import load_database

        database = load_database(snapshot_path)
        snapshot_loaded = True
    else:
        database = Database(manifest.get("name", state_path.name))
    backend = JsonlWalBackend(state_path / WAL_DIR_NAME, fsync_policy=fsync_policy,
                              segment_max_bytes=segment_max_bytes)
    entries, torn = backend.read_entries(since=checkpoint_sequence)
    torn += backend.torn_lines_repaired  # amputated at open, before the read
    with database.wal.suspended():
        for entry in entries:
            try:
                replay_entry(database, entry)
            except RecoveryError:
                raise
            except Exception as exc:
                raise RecoveryError(
                    f"replaying WAL entry {entry.sequence} "
                    f"({entry.operation} on {entry.table!r}) failed: {exc}"
                ) from exc
    database.wal.restore(entries, checkpoint_sequence)
    database.wal.attach_backend(backend)
    return RecoveryResult(
        database=database,
        checkpoint_sequence=checkpoint_sequence,
        snapshot_loaded=snapshot_loaded,
        entries_replayed=len(entries),
        torn_entries_dropped=torn,
        recovery_seconds=time.perf_counter() - started,
        wal_bytes=backend.wal_bytes(),
        checkpoint_count=int(manifest.get("checkpoints", 0)),
    )


def open_durable_database(name: str, state_dir: PathLike,
                          fsync_policy: str = FSYNC_BATCH,
                          segment_max_bytes: int = 1_000_000) -> Database:
    """Create a new durable database in ``state_dir``, or recover the one
    already there (matching names enforced)."""
    state_path = pathlib.Path(state_dir)
    if read_manifest(state_path) is not None:
        result = recover(state_path, fsync_policy=fsync_policy,
                         segment_max_bytes=segment_max_bytes)
        if result.database.name != name:
            raise RecoveryError(
                f"state directory {state_path} holds database "
                f"{result.database.name!r}, not {name!r}")
        return result.database
    state_path.mkdir(parents=True, exist_ok=True)
    backend = JsonlWalBackend(state_path / WAL_DIR_NAME, fsync_policy=fsync_policy,
                              segment_max_bytes=segment_max_bytes)
    database = Database(name, wal_backend=backend)
    _write_manifest(state_path, {
        "name": name,
        "checkpoint_sequence": 0,
        "snapshot": None,
        "checkpoints": 0,
    })
    return database
