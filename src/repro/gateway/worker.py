"""A worker pool draining the gateway's write queue.

Workers are real threads multiplexed over the *simulated* clock: each worker
repeatedly asks the gateway to plan-and-commit one batch.  The gateway's
commit lock makes a commit atomic while admission stays open, so the pool
models the concurrency of a serving tier (many drainers, shared queue, safe
interleaving) while the ledger rounds themselves stay deterministic.

Idle workers do not sleep-poll: they wait on an event the gateway's enqueue
hook sets, and :meth:`GatewayWorkerPool.join_idle` waits on the gateway's
terminal-response hook — so tests synchronise on real state transitions
rather than timing.

For fully deterministic unit tests prefer :meth:`SharingGateway.drain`; the
pool exists to serve continuous traffic and to prove the locking is sound
under genuine thread interleaving.
"""

from __future__ import annotations

import threading
import time
from typing import List

from repro.gateway.gateway import SharingGateway


class GatewayWorkerPool:
    """N worker threads calling :meth:`SharingGateway.commit_once` in a loop."""

    def __init__(self, gateway: SharingGateway, workers: int = 2):
        if workers < 1:
            raise ValueError("the pool needs at least one worker")
        self.gateway = gateway
        self.worker_count = workers
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        #: Set by the gateway's enqueue hook: work is (probably) available.
        self._work_available = threading.Event()
        #: Set by the gateway's terminal hook: a response just turned terminal.
        self._response_terminal = threading.Event()
        self._subscribed = False
        self.batches_committed = 0
        #: Errors raised by commits inside workers (the gateway has already
        #: terminal-failed the affected responses; recorded here so the
        #: failure is observable instead of dying with the thread).
        self.errors: List[str] = []
        self._counter_lock = threading.Lock()

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("worker pool is already running")
        if not self._subscribed:
            # Hooks outlive the pool; they only set events, so firing into a
            # stopped pool is harmless.
            self.gateway.subscribe_enqueue(lambda _depth: self._work_available.set())
            self.gateway.subscribe_terminal(lambda _resp: self._response_terminal.set())
            self._subscribed = True
        self._stop.clear()
        for index in range(self.worker_count):
            thread = threading.Thread(target=self._run, name=f"gateway-worker-{index}",
                                      daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        self._work_available.set()
        if wait:
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
            try:
                result = self.gateway.commit_once(trigger="worker")
            except Exception as exc:  # noqa: BLE001 - a worker must survive
                with self._counter_lock:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                result = None
            if result is not None:
                with self._counter_lock:
                    self.batches_committed += 1
                continue
            if self._stop.is_set():
                return
            # Clear-then-check-then-wait: an enqueue between the check and
            # the wait re-sets the event, so no wakeup is ever lost.
            self._work_available.clear()
            if self.gateway.queue_depth > 0 or self._stop.is_set():
                continue
            # Idle workers block on the enqueue event; the timeout is only a
            # fallback re-check (defence in depth against an enqueue path
            # that bypassed the hook).
            self._work_available.wait(timeout=0.1)

    def join_idle(self, timeout: float = 10.0) -> bool:
        """Block until every accepted write has a terminal response.

        Returns False if ``timeout`` *real* seconds elapse first.  Waits on
        the gateway's terminal-response hook, not a sleep loop.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._response_terminal.clear()
            if self.gateway.outstanding_writes == 0:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self.gateway.outstanding_writes == 0
            self._response_terminal.wait(remaining)
