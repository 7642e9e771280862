"""A read-through cache of materialised shared views.

Read traffic dominates a serving layer, and a shared view only changes when
the Fig. 5 propagation workflow runs.  The cache therefore subscribes to the
:class:`~repro.core.workflow.UpdateCoordinator`'s shared-change hooks.  When
the coordinator can describe a change as a row-level
:class:`~repro.relational.diff.TableDiff` (the delta-propagation path), the
cached views of the affected shared table are *patched in place* — only the
touched rows are rewritten, so a single-row commit against a 10k-row view
costs O(1) cache work and the next read is still a hit.  Only when no diff is
available (a failed, half-installed commit) are the views dropped wholesale.

Each entry is one :class:`CachedView` version.  A patch, pre-warm or
invalidation replaces the entry and never mutates it, so the version's
serialised forms are built at most once: the ``to_dict()`` payload on its
first read, shared by every read of that version, and its JSON only when a
response journal asks for it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.tracer import NULL_TRACER
from repro.relational.diff import TableDiff
from repro.relational.durability import encode_payload
from repro.relational.table import Table


class CachedView:
    """One installed version of a cached view: the table, its install time
    and, built on first use, its serialised forms.

    ``table_dict()`` is shared by every read served from this version, so
    callers must treat it as read-only.  Superseded versions are dropped
    with their memos.
    """

    __slots__ = ("table", "installed_at", "_table_dict", "_table_json")

    def __init__(self, table: Table, installed_at: Optional[float]):
        self.table = table
        #: Simulated install/patch time (``None`` when no clock was
        #: attached), for the degraded-read path's bounded-staleness
        #: guarantee.
        self.installed_at = installed_at
        self._table_dict: Optional[dict] = None
        self._table_json: Optional[bytes] = None

    def table_dict(self) -> dict:
        """``table.to_dict()``, built once per version."""
        if self._table_dict is None:
            self._table_dict = self.table.to_dict()
        return self._table_dict

    def table_json(self) -> bytes:
        """:meth:`table_dict` as a WAL line encodes it, built once per version."""
        if self._table_json is None:
            self._table_json = encode_payload(self.table_dict())
        return self._table_json


class ViewCache:
    """Caches ``(peer, metadata_id) → materialised shared view`` snapshots."""

    def __init__(self):
        self.tracer = NULL_TRACER
        #: Set by the gateway so entries carry install timestamps (simulated
        #: seconds).  Without a clock, install times — and therefore entry
        #: ages — are *unknown* (``None``), never 0.0: an unknown age must
        #: fail a bounded-staleness cutoff, not trivially pass it.
        self.clock = None
        self._entries: Dict[Tuple[str, str], CachedView] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.patches = 0
        self.prewarms = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------- reads

    def get(self, peer: str, metadata_id: str,
            loader: Callable[[], Table]) -> CachedView:
        """Return the cached version, loading (and caching) it on a miss."""
        key = (peer, metadata_id)
        with self.tracer.span("cache.get", peer=peer,
                              metadata_id=metadata_id) as span:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                span.annotate(hit=True)
                return cached
            self.misses += 1
            span.annotate(hit=False)
            cached = self._entries[key] = CachedView(loader(), self._now())
            return cached

    def _now(self) -> Optional[float]:
        return self.clock.now() if self.clock is not None else None

    def peek(self, peer: str, metadata_id: str) -> Optional[CachedView]:
        """The cached version, without counting a hit or triggering a load."""
        return self._entries.get((peer, metadata_id))

    def age(self, cached: CachedView) -> Optional[float]:
        """How long ago ``cached`` was installed, in simulated seconds.

        ``None`` when it cannot be measured — no clock was attached when
        the entry was installed, or none is attached now.  Callers
        enforcing a staleness bound must treat ``None`` as *over* the bound
        (unknown age is not fresh age).
        """
        now = self._now()
        if now is None or cached.installed_at is None:
            return None
        return now - cached.installed_at

    # ------------------------------------------------------------ invalidation

    def invalidate(self, metadata_id: str) -> int:
        """Drop every peer's cached view of ``metadata_id``; returns how many."""
        stale = [key for key in self._entries if key[1] == metadata_id]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def invalidate_all(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self.invalidations += count
        return count

    # ---------------------------------------------------------------- patching

    def patch(self, metadata_id: str, diff: TableDiff) -> int:
        """Apply a row-level diff to every cached view of ``metadata_id``.

        Both peers of an agreement store the same shared-table contents, so
        one view diff patches every peer's cached copy.  An entry the diff
        does not apply to cleanly (it drifted somehow) is dropped instead, so
        a patch can never leave a cached view stale.  Returns the number of
        entries patched.

        Patching is copy-on-write: a reader that already fetched the entry
        keeps a consistent pre-commit snapshot while the swapped copy serves
        later reads — mutating the shared ``Table`` in place would change a
        view a caller still holds.
        """
        with self.tracer.span("cache.patch", metadata_id=metadata_id) as span:
            patched = 0
            for key in [key for key in self._entries
                        if key[1] == metadata_id]:
                try:
                    patched_view = self._entries[key].table.snapshot()
                    patched_view.apply_diff(diff)
                except ReproError:
                    del self._entries[key]
                    self.invalidations += 1
                else:
                    self._entries[key] = CachedView(patched_view, self._now())
                    patched += 1
            self.patches += patched
            span.annotate(patched=patched)
            return patched

    # -------------------------------------------------------------- pre-warming

    def prewarm(self, peer: str, metadata_id: str, view: Table) -> CachedView:
        """Install a freshly materialised view ahead of any read; returns
        the installed version.

        The diff-driven pre-warm path: at a commit boundary the gateway (or
        a replica's replayer) materialises the just-changed shared views and
        installs them here, so the next read is a hit instead of a
        read-through miss.
        """
        cached = self._entries[(peer, metadata_id)] = CachedView(view, self._now())
        self.prewarms += 1
        return cached

    # -------------------------------------------------------------- change hook

    def on_shared_diff(self, metadata_id: str, operation: str,
                       peers: Tuple[str, str],
                       diff: Optional[TableDiff] = None) -> None:
        """The :meth:`UpdateCoordinator.subscribe_shared_diff` listener:
        patches the affected views row by row, dropping them only when the
        change carries no diff."""
        if diff is None:
            self.invalidate(metadata_id)
        elif not diff.is_empty:
            self.patch(metadata_id, diff)

    def register_metrics(self, registry) -> None:
        """Expose the cache's live statistics as registry gauges."""
        registry.gauge("cache_entries", fn=lambda: len(self._entries))
        registry.gauge("cache_hits", fn=lambda: self.hits)
        registry.gauge("cache_misses", fn=lambda: self.misses)
        registry.gauge("cache_hit_rate", fn=lambda: self.hit_rate)
        registry.gauge("cache_invalidations", fn=lambda: self.invalidations)
        registry.gauge("cache_patches", fn=lambda: self.patches)
        registry.gauge("cache_prewarms", fn=lambda: self.prewarms)

    def statistics(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "patches": self.patches,
            "prewarms": self.prewarms,
        }
