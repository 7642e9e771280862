"""Fleet placements: parity, partitioning, and crash recovery via the WAL.

The multiprocess tests fork real worker processes and carry the
``multiprocess`` marker so CI can run them in a dedicated job under a hard
timeout; everything else runs the loopback placement in the test process.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.config import LoadtestSpec
from repro.crypto.hashing import canonical_json
from repro.errors import FleetError, WorkerCrashError
from repro.gateway.gateway import ResponseJournal
from repro.runtime import GatewayFleet, WorkerSpec, partition_tenants
from repro.runtime.fleet import CRASH_EXIT_CODE

#: Small but non-trivial workload: a few batches per worker, two lanes of
#: tenants, deterministic seeds.
SPEC_KWARGS = dict(duration=6.0, rate=1.0, read_fraction=0.5, interval=1.0,
                   batch_size=4, include_fingerprints=True)


def _split(tenants, workers, **fields):
    return partition_tenants(
        LoadtestSpec(tenants=tenants, processes=workers, **fields))


def _fingerprints(result):
    return {name: worker["fingerprints"]
            for name, worker in sorted(result.workers.items())}


class TestPartitioning:
    def test_round_robin_split(self):
        specs = _split(10, 4, seed=100, duration=3.0)
        assert [worker.spec.tenants for worker in specs] == [3, 3, 2, 2]
        assert [worker.spec.seed for worker in specs] == [100, 101, 102, 103]
        assert [worker.name for worker in specs] == [f"worker-{i}" for i in range(4)]
        assert all(worker.spec.duration == 3.0 for worker in specs)

    def test_too_few_tenants(self):
        with pytest.raises(FleetError, match="cannot split"):
            _split(2, 3)

    def test_zero_workers(self):
        # Refused where the run is declared: no spec has zero workers.
        with pytest.raises(ValueError, match="at least one worker"):
            _split(4, 0)


class TestFleetValidation:
    def test_unknown_mode(self):
        with pytest.raises(FleetError, match="unknown fleet mode"):
            GatewayFleet([WorkerSpec("w", LoadtestSpec(tenants=1))], mode="rdma")

    def test_duplicate_names(self):
        with pytest.raises(FleetError, match="duplicate worker names"):
            GatewayFleet([WorkerSpec("w", LoadtestSpec(tenants=1)),
                          WorkerSpec("w", LoadtestSpec(tenants=1))])

    def test_empty_fleet(self):
        with pytest.raises(FleetError, match="at least one worker spec"):
            GatewayFleet([]).run()

    def test_unknown_crash_policy(self):
        with pytest.raises(FleetError, match="on_crash"):
            GatewayFleet([WorkerSpec("w", LoadtestSpec(tenants=1))],
                         on_crash="shrug")

    def test_loopback_rejects_crash_specs(self):
        """A crash spec on a loopback thread would os._exit the coordinator
        itself (and leak the ResponseJournal.sync patch into every
        in-process worker), so the fleet must refuse it up front."""
        spec = WorkerSpec("w", LoadtestSpec(tenants=1), crash_after_syncs=1)
        with pytest.raises(FleetError, match="crash_after_syncs"):
            GatewayFleet([spec], mode="loopback")


class TestLoopbackParity:
    def test_one_worker_loopback_matches_direct_run(self):
        """The runtime boundary is a placement change, not a semantic one:
        one loopback worker == calling the engine directly."""
        from repro.cli import run_gateway_loadtest

        spec = WorkerSpec("worker-0",
                          LoadtestSpec(tenants=2, seed=23, **SPEC_KWARGS))
        fleet = GatewayFleet([spec], mode="loopback").run()
        direct = run_gateway_loadtest(tenants=2, seed=23, **SPEC_KWARGS)
        direct = json.loads(canonical_json(direct))
        worker = fleet.workers["worker-0"]
        assert worker["fingerprints"] == direct["fingerprints"]
        assert (worker["metrics"]["batches"]["writes_committed"]
                == direct["metrics"]["batches"]["writes_committed"])
        assert fleet.clock["merged_now"] == direct["simulated_seconds"]

    def test_codec_choice_never_changes_results(self):
        """Loopback with no codec, canonical JSON, and binary must agree
        on every worker fingerprint — codecs re-encode, never reinterpret."""
        specs = _split(4, 2, **SPEC_KWARGS)
        runs = [GatewayFleet(specs, mode="loopback", wire_codec=codec).run()
                for codec in (None, "canonical-json", "binary")]
        baseline = _fingerprints(runs[0])
        assert all(_fingerprints(run) == baseline for run in runs[1:])
        assert len({run.committed_writes for run in runs}) == 1

    def test_loopback_serves_each_worker_in_turn(self, monkeypatch):
        """No worker runs beside another: each slice runs to completion, in
        spec order, before the next one starts."""
        from repro.runtime import fleet as fleet_module

        events = []
        run_slice = fleet_module.run_worker_slice

        def recording(spec):
            events.append(("start", spec.name))
            result = run_slice(spec)
            events.append(("end", spec.name))
            return result

        monkeypatch.setattr(fleet_module, "run_worker_slice", recording)
        specs = _split(6, 3, **SPEC_KWARGS)
        result = GatewayFleet(specs, mode="loopback").run()
        assert events == [(edge, spec.name) for spec in specs
                          for edge in ("start", "end")]
        assert sorted(result.workers) == sorted(spec.name for spec in specs)

    def test_transport_stats_track_codec(self):
        specs = [WorkerSpec("worker-0", LoadtestSpec(tenants=1, **SPEC_KWARGS))]
        coded = GatewayFleet(specs, mode="loopback", wire_codec="binary").run()
        stats = coded.transport["worker-0"]
        assert stats["sent"] == 2  # worker.run + worker.shutdown
        assert stats["received"] == 2  # clock.report + worker.result
        assert stats["wire_bytes_out"] > 0


#: Result keys that are wall-clock measurements or name the worker.
_PLACEMENT_KEYS = {"worker", "wall_seconds", "wall_self", "recovery_seconds"}


def _without(value, keys):
    """``value`` with every dict entry named in ``keys`` dropped, at any depth."""
    if isinstance(value, dict):
        return {key: _without(item, keys) for key, item in value.items()
                if key not in keys}
    if isinstance(value, list):
        return [_without(item, keys) for item in value]
    return value


class TestFleetHonoursTheWholeSpec:
    """Options the fleet used to refuse (its WorkerSpec could not carry
    them): each worker now runs its whole slice spec, so its result is the
    direct engine's result for that spec — the one-worker ≡ direct-run
    oracle widened to every option."""

    def run_both(self, spec, ignore=frozenset()):
        from repro.cli import run_gateway_fleet, run_gateway_loadtest

        fleet = run_gateway_fleet(spec.processes, mode="loopback", spec=spec)
        drop = _PLACEMENT_KEYS | ignore
        for worker in partition_tenants(spec):
            direct = json.loads(canonical_json(run_gateway_loadtest(worker.spec)))
            assert (canonical_json(_without(fleet["workers"][worker.name], drop))
                    == canonical_json(_without(direct, drop)))
        return fleet["workers"]

    def test_each_worker_sheds_and_throttles_on_its_own(self):
        # 8 writes/s per worker against a 3-deep queue, a 2 s latency
        # target and a 3/s token bucket (sync driver: deterministic).
        workers = self.run_both(LoadtestSpec(
            tenants=4, processes=2, duration=6.0, rate=4.0, read_fraction=0.0,
            interval=1.0, max_queue_depth=3, latency_target=2.0,
            rate_limit=3.0))
        for worker in workers.values():
            assert worker["metrics"]["queue"]["capacity"] == 3
            assert worker["metrics"]["queue"]["shed_requests"] > 0
            assert worker["metrics"]["requests"]["by_status"]["throttled"] > 0

    def test_each_worker_serves_reads_from_its_own_replicas(self):
        # No state_dir: every worker backs its replicas with its own
        # temporary directory, gone again when the slice returns.
        workers = self.run_both(
            LoadtestSpec(tenants=4, processes=2, duration=6.0, interval=1.0,
                         read_fraction=0.8, replicas=2, **{
                             key: SPEC_KWARGS[key] for key in ("rate", "batch_size")}),
            ignore={"state_dir"})
        for worker in workers.values():
            assert worker["metrics"]["replication"]["replica_reads"] > 0
        state_dirs = [worker["metrics"]["durability"]["state_dir"]
                      for worker in workers.values()]
        assert len(set(state_dirs)) == 2
        assert not any(pathlib.Path(path).exists() for path in state_dirs)

    def test_each_worker_exports_its_own_trace_and_fault_events(self, tmp_path):
        plan = {"seed": 7, "faults": [{"kind": "transport.drop",
                                       "probability": 0.2}]}
        workers = self.run_both(LoadtestSpec(
            tenants=4, processes=2, duration=6.0, interval=1.0, batch_size=4,
            chaos=plan, trace_out=str(tmp_path / "spans"),
            chaos_events_out=str(tmp_path / "events")))
        for name, worker in workers.items():
            assert worker["trace"]["export_path"] == str(tmp_path / "spans" / name)
            assert worker["chaos"]["events_path"] == str(tmp_path / "events" / name)
            assert worker["trace"]["exported_spans"] > 0
            assert worker["chaos"]["fault_events"] > 0
            assert (tmp_path / "spans" / name).stat().st_size > 0
            assert (tmp_path / "events" / name).stat().st_size > 0


@pytest.mark.multiprocess
class TestMultiprocessPlacement:
    def test_matches_loopback_byte_for_byte(self):
        """Same specs, other placement: per-worker fingerprints, commit
        counts and clock reports all identical."""
        specs = _split(4, 2, **SPEC_KWARGS)
        loop = GatewayFleet(specs, mode="loopback", wire_codec="binary").run()
        forked = GatewayFleet(specs, mode="multiprocess",
                              wire_codec="binary").run()
        assert _fingerprints(forked) == _fingerprints(loop)
        assert forked.committed_writes == loop.committed_writes
        assert forked.clock["reports"] == loop.clock["reports"]
        assert forked.clock["merged_now"] == loop.clock["merged_now"]

    def test_crash_mid_commit_recovers_via_wal(self, tmp_path):
        """A worker killed inside a journal sync (mid-commit, after WAL
        appends) must surface as a crash with its exit code — and its
        journal must reopen cleanly from disk with every synced response
        readable, which is exactly the recovery story the WAL promises."""
        specs = [
            dataclasses.replace(worker,
                                crash_after_syncs=(2 if index == 0 else None))
            for index, worker in enumerate(
                _split(4, 2, state_dir=str(tmp_path),
                       **{**SPEC_KWARGS, "read_fraction": 0.0}))
        ]
        fleet = GatewayFleet(specs, mode="multiprocess", on_crash="collect",
                             timeout=120.0)
        result = fleet.run()

        assert [crash["worker"] for crash in result.crashes] == ["worker-0"]
        assert result.crashes[0]["exitcode"] == CRASH_EXIT_CODE
        # The survivor finished normally and its result was kept.
        assert set(result.workers) == {"worker-1"}
        assert result.workers["worker-1"]["metrics"]["batches"]["committed"] > 0

        # Recovery: reopen the crashed worker's journal from its WAL.  The
        # first sync completed before the injected crash, so at least one
        # batch of terminal responses must come back, in order, with any
        # torn tail from the crash amputated rather than poisoning the log.
        journal = ResponseJournal(tmp_path / "worker-0" / "responses")
        entries, _last = journal.backend.read_entries()
        assert entries, "no journaled responses survived the crash"
        sequences = [entry.sequence for entry in entries]
        assert sequences == sorted(sequences)
        assert all(entry.operation == "response" for entry in entries)
        journal.close()

    def test_crash_raises_by_default(self, tmp_path):
        slice_spec = LoadtestSpec(
            tenants=2, seed=23, state_dir=str(tmp_path / "worker-0"),
            **{**SPEC_KWARGS, "read_fraction": 0.0})
        specs = [WorkerSpec("worker-0", slice_spec, crash_after_syncs=1)]
        fleet = GatewayFleet(specs, mode="multiprocess", timeout=120.0)
        with pytest.raises(WorkerCrashError) as excinfo:
            fleet.run()
        assert excinfo.value.worker == "worker-0"
        assert excinfo.value.exitcode == CRASH_EXIT_CODE
