"""Smoke test of the benchmark itself, at ``--smoke`` sizes.

Collected by the tier-1 suite.  Every segment runs in its own process (as in
a real run), so nothing here patches classes inside the pytest process.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 23
WORKLOAD_PARAMS = [
    pytest.param(name, marks=pytest.mark.multiprocess) if name == "fleet-2proc" else name
    for name in WORKLOADS
]


def test_benchmark_json_lists_what_the_code_measures():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["command"] == ["python3", "perf/run.py"]
    assert benchmark["paths"] == ["perf"]
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in run.END_TO_END.items()]
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert benchmark["per_layer"] == layers.per_layer_spec()
    assert len(benchmark["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOAD_PARAMS)
def test_every_named_metric_is_present_finite_and_repeatable(workload):
    result = run.measure(workload, SEED, seconds=0, size="smoke")
    assert result["correct"], result["failed_checks"]
    assert result["fail_ratio"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, value in result["metrics"].items():
        assert math.isfinite(value) and value > 0, name
    assert result["samples"]["segments"] == run.MIN_SEGMENTS
    line = json.loads(run.contract_line(result, run.END_TO_END, result["metrics"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0

    traced = run.measure_traced(workload, SEED, size="smoke")
    assert traced["correct"], traced["failed_checks"]
    assert traced["unbound"] == []
    assert {item["name"] for item in layers.per_layer_spec()} == set(traced["layers"])
    for name, value in traced["layers"].items():
        assert value is not None and math.isfinite(value), name
    assert all(check["ok"] for check in traced["crosschecks"].values()), \
        traced["crosschecks"]
    assert traced["layers"]["trace.spans.count"] > 0
    assert (HERE / "results" / f"trace-{workload}.jsonl").exists() \
        or (HERE / "results" / f"trace-{workload}.jsonl.worker-0").exists()
    runtime_work = traced["layers"]["runtime.codec.encode.count"]
    assert (runtime_work > 0) == (workload == "fleet-2proc")
    wal_work = traced["layers"]["relational.wal.append.count"]
    assert (wal_work > 0) == (workload == "read-mostly-durable")

    # Same seed, separate processes: simulated-clock numbers and the state
    # digest repeat exactly; another seed gives other inputs.
    assert traced["state_digest"] == result["state_digest"]
    assert traced["layers"]["sim.write_p50_s"] == result["sim"]["sim_write_p50_s"]
    assert traced["layers"]["sim.write_p99_s"] == result["sim"]["sim_write_p99_s"]
    assert traced["layers"]["sim.writes_per_s"] == result["sim"]["sim_writes_per_s"]
    other = run.run_segment(workload, SEED + 1, "smoke")
    assert other["state_digest"] != result["state_digest"]


def test_output_checks_trip_on_a_corrupted_table():
    from repro.workloads.topology import TopologySpec, build_topology_system

    system = build_topology_system(TopologySpec(patients=2, researchers=0, seed=SEED))
    clean = probe.system_checks(system)
    assert all(clean["checks"].values())
    # Edit one peer's copy of a shared table behind the protocol's back.
    metadata_id = system.agreement_ids[0]
    patient = next(name for name in system.agreement(metadata_id).peers
                   if name != "doctor")
    table = system.peer(patient).shared_table(metadata_id)
    row = next(iter(table))
    table.update_by_key(row.key(table.schema.primary_key),
                        {"clinical_data": "edited behind the protocol"})
    corrupted = probe.system_checks(system)
    assert not corrupted["checks"]["shared_tables_consistent"]
    assert (probe.fingerprint_digest(corrupted["fingerprints"])
            != probe.fingerprint_digest(clean["fingerprints"]))
    assert run.segment_failures(corrupted) == ["shared_tables_consistent",
                                               "views_consistent_with_sources"]


def test_a_bogus_wrap_target_lands_in_unbound_instead_of_raising():
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "import probe\n"
        "unbound = probe.install_layer_wrappers(probe.SpanRecorder(),\n"
        "    [('bogus.span', 'repro.gateway.gateway.SharingGateway.no_such_method'),\n"
        "     ('bogus.module', 'repro.no_such_module.Thing.method')])\n"
        "print(json.dumps(list(unbound)))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [
        "repro.gateway.gateway.SharingGateway.no_such_method",
        "repro.no_such_module.Thing.method"]
    assert "is unbound" in done.stderr
    with pytest.raises(LookupError):
        probe.resolve("repro.gateway.gateway.SharingGateway.no_such_method")


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.10) == "better"
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.10) == "worse"
    assert compare.verdict([10, 10.1, 9.9], [10.2, 10, 10.1], "lower", 0.10) == "same"
    assert compare.verdict([10, 13, 7], [10.5, 8, 12], "lower", 0.10) == "unresolved"
    assert compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.10) == "worse"
