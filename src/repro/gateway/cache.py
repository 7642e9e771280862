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
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.tracer import NULL_TRACER
from repro.relational.diff import TableDiff
from repro.relational.table import Table


class ViewCache:
    """Caches ``(peer, metadata_id) → materialised shared view`` snapshots."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.tracer = NULL_TRACER
        #: Set by the gateway so entries carry install timestamps (simulated
        #: seconds).  Without a clock, install times — and therefore entry
        #: ages — are *unknown* (``None``), never 0.0: an unknown age must
        #: fail a bounded-staleness cutoff, not trivially pass it.
        self.clock = None
        self._entries: Dict[Tuple[str, str], Table] = {}
        #: Simulated install/patch time per entry (``None`` when no clock
        #: was attached at install time), for the degraded-read path's
        #: bounded-staleness guarantee.
        self._installed_at: Dict[Tuple[str, str], Optional[float]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.patches = 0
        self.prewarms = 0
        #: Per shared table, a counter bumped by every patch/invalidation.
        #: A miss loads *outside* the cache lock (so loading never nests the
        #: cache lock inside the gateway's commit lock); the loaded view is
        #: only installed if no change landed in between — otherwise it could
        #: be stale and caching it would serve stale reads forever.
        self._generations: Dict[str, int] = {}
        self.stale_loads_discarded = 0
        self._lock = threading.RLock()

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
            loader: Callable[[], Table]) -> Table:
        """Return the cached view, loading (and caching) it on a miss.

        The loader runs *without* the cache lock held: the gateway's loader
        acquires the commit lock (a read-through load must not observe a
        half-installed batch), and an in-flight commit's diff hook takes the
        cache lock — holding the cache lock across the load would deadlock.
        The load is installed only if no patch/invalidation of the same
        shared table happened meanwhile (generation guard); a superseded load
        is still returned to the caller (it is fresh — it was materialised
        after the intervening commit finished) but not cached.
        """
        if not self.enabled:
            return loader()
        key = (peer, metadata_id)
        with self.tracer.span("cache.get", peer=peer,
                              metadata_id=metadata_id) as span:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self.hits += 1
                    span.annotate(hit=True)
                    return cached
                self.misses += 1
                # setdefault (not get): the table must be known to the
                # generation map while the load is in flight, so a concurrent
                # invalidate_all() bumps it and the superseded load is
                # discarded even if the table had no cached entry yet.
                generation = self._generations.setdefault(metadata_id, 0)
            span.annotate(hit=False)
            view = loader()
            with self._lock:
                if self._generations.get(metadata_id, 0) == generation:
                    self._entries[key] = view
                    self._installed_at[key] = self._now()
                else:
                    self.stale_loads_discarded += 1
                return view

    def _now(self) -> Optional[float]:
        return self.clock.now() if self.clock is not None else None

    def peek(self, peer: str, metadata_id: str) -> Optional[Table]:
        return self._entries.get((peer, metadata_id))

    def peek_entry(self, peer: str,
                   metadata_id: str) -> Optional[Tuple[Table, Optional[float]]]:
        """The cached view *and its age* in simulated seconds, without
        counting a hit or triggering a load (the degraded-read path).

        The age is ``None`` when it cannot be measured — no clock was
        attached when the entry was installed, or none is attached now.
        Callers enforcing a staleness bound must treat ``None`` as *over*
        the bound (unknown age is not fresh age).
        """
        with self._lock:
            key = (peer, metadata_id)
            view = self._entries.get(key)
            if view is None:
                return None
            now = self._now()
            installed = self._installed_at.get(key)
            if now is None or installed is None:
                return view, None
            return view, now - installed

    # ------------------------------------------------------------ invalidation

    def invalidate(self, metadata_id: str) -> int:
        """Drop every peer's cached view of ``metadata_id``; returns how many."""
        with self._lock:
            self._bump(metadata_id)
            stale = [key for key in self._entries if key[1] == metadata_id]
            for key in stale:
                del self._entries[key]
                self._installed_at.pop(key, None)
            self.invalidations += len(stale)
            return len(stale)

    def invalidate_all(self) -> int:
        with self._lock:
            # Every *known* table, not just those with live entries: a miss
            # registers its table before loading, so in-flight loads are
            # superseded by this flush too.
            for metadata_id in list(self._generations):
                self._bump(metadata_id)
            count = len(self._entries)
            self._entries.clear()
            self._installed_at.clear()
            self.invalidations += count
            return count

    def _bump(self, metadata_id: str) -> None:
        """Advance ``metadata_id``'s generation (caller holds the lock)."""
        self._generations[metadata_id] = self._generations.get(metadata_id, 0) + 1

    # ---------------------------------------------------------------- patching

    def patch(self, metadata_id: str, diff: TableDiff) -> int:
        """Apply a row-level diff to every cached view of ``metadata_id``.

        Both peers of an agreement store the same shared-table contents, so
        one view diff patches every peer's cached copy.  An entry the diff
        does not apply to cleanly (it drifted somehow) is dropped instead, so
        a patch can never leave a cached view stale.  Returns the number of
        entries patched.

        Patching is copy-on-write: a reader that already fetched the entry
        keeps serialising a consistent pre-commit snapshot while the swapped
        copy serves later reads — commits run while reads are in flight, so
        mutating the shared ``Table`` in place would tear those reads.
        """
        with self.tracer.span("cache.patch", metadata_id=metadata_id) as span:
            with self._lock:
                self._bump(metadata_id)
                patched = 0
                for key in [key for key in self._entries
                            if key[1] == metadata_id]:
                    try:
                        patched_view = self._entries[key].snapshot()
                        patched_view.apply_diff(diff)
                    except ReproError:
                        del self._entries[key]
                        self._installed_at.pop(key, None)
                        self.invalidations += 1
                    else:
                        self._entries[key] = patched_view
                        self._installed_at[key] = self._now()
                        patched += 1
                self.patches += patched
                span.annotate(patched=patched)
                return patched

    # -------------------------------------------------------------- pre-warming

    def prewarm(self, peer: str, metadata_id: str, view: Table) -> bool:
        """Install a freshly materialised view ahead of any read.

        The diff-driven pre-warm path: at a commit boundary the gateway (or
        a replica's replayer) materialises the just-changed shared views and
        installs them here, so the next read is a hit instead of a
        read-through miss.  Bumps the table's generation — an in-flight
        read-through load of the same table raced the commit and must not
        overwrite the fresher pre-warmed copy.  Returns whether the entry
        was installed (a disabled cache ignores pre-warms).
        """
        if not self.enabled:
            return False
        with self._lock:
            self._bump(metadata_id)
            self._entries[(peer, metadata_id)] = view
            self._installed_at[(peer, metadata_id)] = self._now()
            self.prewarms += 1
            return True

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
        registry.gauge("cache_stale_loads_discarded",
                       fn=lambda: self.stale_loads_discarded)

    def statistics(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "patches": self.patches,
            "prewarms": self.prewarms,
            "stale_loads_discarded": self.stale_loads_discarded,
        }
