"""Thread stress on the gateway's documented lock order.

``repro/gateway/gateway.py``'s module docstring fixes the order
``_commit_lock`` → {``_lock``, the cache lock}, ``_lock`` → the cache lock,
with the scheduler, response-journal and WAL-backend locks as leaves (only the
journal's own WAL lock is taken beneath one).  All three pump drivers call one
core, so one recording proxy around those six locks sees every acquisition any
of them makes; the test asserts each observed "held X while taking Y" pair is
one the docstring allows.

Threads line up on a barrier and hand over with events — no ``time.sleep``
anywhere, matching ``test_worker_races.py``.
"""

import asyncio
import threading

import pytest

from repro.config import SystemConfig
from repro.gateway import (
    AsyncSharingGateway,
    GatewayWorkerPool,
    ReadViewRequest,
    SharingGateway,
    STATUS_SHED,
    STATUS_THROTTLED,
    UpdateEntryRequest,
)
from repro.workloads.topology import TopologySpec, build_topology_system

pytestmark = [pytest.mark.slow]

ROUNDS = 6
SUBMITTERS = 4
WAIT = 60.0

ORDERED = ("commit", "admission", "cache")
LEAVES = ("scheduler", "journal", "wal")
#: Every "held X while acquiring Y" pair the docstring allows.
ALLOWED = (
    {(held, taken) for index, held in enumerate(ORDERED)
     for taken in ORDERED[index + 1:]}
    | {(held, leaf) for held in ORDERED for leaf in LEAVES}
    | {("journal", "wal")})


class _HeldLocks(threading.local):
    """The names of the recorded locks the current thread holds, in order."""

    def __init__(self):
        self.names = []


class LockOrderRecorder:
    """Collects the (held, taken) name pairs of every nested acquisition."""

    def __init__(self):
        self.pairs = set()
        self._held = _HeldLocks()

    def wrap(self, owner, attribute, name):
        setattr(owner, attribute, _RecordingLock(self, name, getattr(owner, attribute)))

    def acquired(self, name):
        held = self._held.names
        # A re-entrant acquisition of the same lock orders nothing.
        self.pairs.update((other, name) for other in held if other != name)
        held.append(name)

    def released(self, name):
        self._held.names.remove(name)


class _RecordingLock:
    def __init__(self, recorder, name, inner):
        self._recorder, self._name, self._inner = recorder, name, inner

    def __enter__(self):
        self._inner.acquire()
        self._recorder.acquired(self._name)
        return self

    def __exit__(self, *_exc):
        self._recorder.released(self._name)
        self._inner.release()


@pytest.fixture
def stressed(tmp_path):
    """A durable 4-tenant gateway whose queue sheds at depth 2, with every
    documented lock behind the recorder."""
    system = build_topology_system(TopologySpec(patients=SUBMITTERS, researchers=0),
                                   SystemConfig.private_chain(1.0))
    gateway = SharingGateway(system, max_batch_size=4, max_queue_depth=2,
                             state_dir=tmp_path)
    recorder = LockOrderRecorder()
    recorder.wrap(gateway, "_commit_lock", "commit")
    recorder.wrap(gateway, "_lock", "admission")
    recorder.wrap(gateway.cache, "_lock", "cache")
    recorder.wrap(gateway.scheduler, "_lock", "scheduler")
    recorder.wrap(gateway.journal, "_lock", "journal")
    recorder.wrap(gateway.journal.backend, "_lock", "wal")
    yield gateway, recorder
    gateway.close()


def traffic(gateway):
    """Per submitter: its session and its rounds of one write + one read.
    The last tenant sits at its rate limit (one token, never refilled)."""
    plans = []
    for index, metadata_id in enumerate(sorted(gateway.system.agreement_ids)):
        patient_id = int(metadata_id.split(":")[1])
        limited = index == SUBMITTERS - 1
        session = gateway.open_session(f"patient-{patient_id}",
                                       rate=0.001 if limited else None,
                                       burst=1.0 if limited else None)
        requests = []
        for round_index in range(ROUNDS):
            requests.append(UpdateEntryRequest(
                metadata_id, (patient_id,),
                {"clinical_data": f"lock-{patient_id}-{round_index}"}))
            requests.append(ReadViewRequest(metadata_id))
        plans.append((session, requests))
    return plans


def run_submitters(plans, submit):
    """Drive every plan from its own thread, released together; returns the
    responses (and re-raises the first thread failure)."""
    barrier = threading.Barrier(len(plans))
    responses, failures = [], []

    def drive(session, requests):
        try:
            barrier.wait(timeout=WAIT)
            for request in requests:
                responses.append(submit(session, request))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=drive, args=plan, daemon=True)
               for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]
    return responses


def assert_documented_order(gateway, recorder, responses):
    assert all(response.terminal for response in responses)
    statuses = {response.status for response in responses}
    assert {STATUS_SHED, STATUS_THROTTLED} <= statuses  # the pressure was real
    assert gateway.metrics()["batches"]["writes_committed"] >= 1
    assert recorder.pairs <= ALLOWED, sorted(recorder.pairs - ALLOWED)
    # The proxy saw the nesting the docstring describes, not nothing.
    assert {("commit", "admission"), ("commit", "cache"), ("admission", "scheduler"),
            ("commit", "wal"), ("journal", "wal")} <= recorder.pairs


def test_raw_commit_once_threads(stressed):
    gateway, recorder = stressed
    submitted = threading.Event()
    failures = []

    def commit_loop():
        try:
            while not (submitted.is_set() and gateway.queue_depth == 0):
                gateway.commit_once()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    committers = [threading.Thread(target=commit_loop, daemon=True) for _ in range(2)]
    for thread in committers:
        thread.start()
    try:
        responses = run_submitters(traffic(gateway), gateway.submit)
    finally:
        submitted.set()
    for thread in committers:
        thread.join(timeout=WAIT)
    assert not any(thread.is_alive() for thread in committers) and not failures
    gateway.drain()
    assert_documented_order(gateway, recorder, responses)


def test_worker_pool(stressed):
    gateway, recorder = stressed
    with GatewayWorkerPool(gateway, workers=2) as pool:
        responses = run_submitters(traffic(gateway), gateway.submit)
        assert pool.join_idle(timeout=WAIT)
        assert not pool.errors, pool.errors
    assert_documented_order(gateway, recorder, responses)


def test_async_front_end(stressed):
    gateway, recorder = stressed

    async def scenario():
        loop = asyncio.get_running_loop()
        async with AsyncSharingGateway(gateway) as front:
            async def admit(session, request):
                return front.submit_nowait(session, request)

            def submit(session, request):
                # Open loop from a foreign thread: admission runs on the
                # event loop, the read or the commit on an executor thread.
                return asyncio.run_coroutine_threadsafe(
                    admit(session, request), loop).result(WAIT)

            futures = await loop.run_in_executor(
                None, run_submitters, traffic(gateway), submit)
            await front.drain()
            assert not front.commit_errors, front.commit_errors
            return await asyncio.gather(*futures)

    responses = asyncio.run(asyncio.wait_for(scenario(), WAIT * 2))
    assert_documented_order(gateway, recorder, responses)
