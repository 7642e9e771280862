"""A worker pool draining the gateway's write queue.

Workers are real threads multiplexed over the *simulated* clock, each an
always-idle driver of the gateway's commit pump: it asks the seal rule with
``idle`` set, so it commits the moment anything is queued.  The gateway's
commit lock makes a commit atomic while admission stays open, so the pool
models the concurrency of a serving tier (many drainers, shared queue, safe
interleaving) while the ledger rounds themselves stay deterministic.

Nothing sleep-polls: idle workers wait on an event the gateway's enqueue hook
sets and :meth:`GatewayWorkerPool.join_idle` on its terminal-response hook, so
tests synchronise on real state transitions rather than timing.  For fully
deterministic unit tests prefer :meth:`SharingGateway.drain`; the pool exists
to prove the locking is sound under genuine thread interleaving.
"""

from __future__ import annotations

import threading
import time
from typing import List

from repro.gateway.gateway import SharingGateway


class GatewayWorkerPool:
    """N worker threads pumping :meth:`SharingGateway.pump_once` in a loop;
    ``batches_committed`` and ``errors`` read the gateway's pump record."""

    def __init__(self, gateway: SharingGateway, workers: int = 2):
        if workers < 1:
            raise ValueError("the pool needs at least one worker")
        self.gateway = gateway
        self.worker_count = workers
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._work_available = threading.Event()
        self._response_terminal = threading.Event()
        # Hooks outlive the pool; they only set events, so firing into a
        # stopped pool is harmless.
        gateway.subscribe_enqueue(lambda _depth: self._work_available.set())
        gateway.subscribe_terminal(lambda _resp: self._response_terminal.set())

    @property
    def batches_committed(self) -> int:
        return self.gateway.pump_record()["commits"]

    @property
    def errors(self) -> List[str]:
        return self.gateway.pump_record()["errors"]

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("worker pool is already running")
        self._stop.clear()
        for index in range(self.worker_count):
            thread = threading.Thread(target=self._run, name=f"gateway-worker-{index}",
                                      daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        """Stop the workers once they have flushed what is still queued."""
        self._stop.set()
        self._work_available.set()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def __enter__(self) -> "GatewayWorkerPool":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    # -------------------------------------------------------------------- work

    def _run(self) -> None:
        while True:
            # Clear-then-check-then-wait: an enqueue after the check re-sets
            # the event, so no wakeup is ever lost.
            self._work_available.clear()
            stopping = self._stop.is_set()
            trigger = self.gateway.seal_trigger(idle=True, flushing=stopping)
            if trigger is not None:
                self.gateway.pump_once(trigger)
            elif stopping:
                return
            else:
                # The timeout is only a fallback re-check (defence in depth
                # against an enqueue path that bypassed the hook).
                self._work_available.wait(timeout=0.1)

    def join_idle(self, timeout: float = 10.0) -> bool:
        """Block until every accepted write has a terminal response, then
        finish through :meth:`SharingGateway.drain` like every front end.

        Returns False if ``timeout`` *real* seconds elapse first.  Waits on
        the gateway's terminal-response hook, not a sleep loop.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._response_terminal.clear()
            if self.gateway.outstanding_writes == 0:
                self.gateway.drain()
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._response_terminal.wait(remaining)
