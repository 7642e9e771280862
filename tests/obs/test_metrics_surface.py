"""The serving numbers have one source.

Two seeded load tests — in memory, and with two WAL-shipping replicas over a
temporary ``state_dir`` — must render the same ``metrics()`` tree, registry
snapshot and state fingerprints as the capture in ``metrics_surface.json``,
and each tenant's latency row in the tree must be its registry histogram.
Run this file as a script to rewrite the capture after a deliberate change.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.cli import run_gateway_loadtest
from repro.errors import GatewayError
from repro.gateway import SharingGateway
from repro.obs import MetricsRegistry

CAPTURE = pathlib.Path(__file__).with_name("metrics_surface.json")
#: Durability fields two runs of one seed disagree on (wall clock, temp path).
VOLATILE = ("recovery_seconds", "state_dir")
RUNS = {"memory": {}, "replicas": {"replicas": 2}}


def surface(run: str) -> dict:
    """One seeded run's metrics tree, registry snapshot and fingerprints."""
    with tempfile.TemporaryDirectory(prefix="repro-surface-") as tmp:
        extra = dict(RUNS[run], state_dir=tmp) if RUNS[run] else {}
        result = run_gateway_loadtest(tenants=6, duration=30, seed=23,
                                      registry=True, include_fingerprints=True,
                                      **extra)
    for field in VOLATILE:
        result["metrics"]["durability"].pop(field, None)
    return json.loads(json.dumps(
        {key: result[key] for key in ("metrics", "registry", "fingerprints")}))


@pytest.fixture(scope="module")
def surfaces():
    return {run: surface(run) for run in RUNS}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_surface_matches_capture(surfaces, run):
    expected = json.loads(CAPTURE.read_text(encoding="utf-8"))[run]
    assert surfaces[run]["metrics"] == expected["metrics"]
    assert surfaces[run]["registry"] == expected["registry"]
    assert surfaces[run]["fingerprints"] == expected["fingerprints"]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_tenant_rows_are_the_registry_histograms(surfaces, run):
    tenants = surfaces[run]["metrics"]["tenants"]
    histograms = surfaces[run]["registry"]["histograms"]
    assert len(tenants) == 6
    for tenant, row in tenants.items():
        summary = histograms[f'gateway_request_latency{{tenant="{tenant}"}}']["summary"]
        assert (summary["count"], summary["p95"], summary["p99"]) == (
            row["count"], row["p95"], row["p99"])


def test_second_gateway_on_one_registry_is_refused(fresh_paper_system):
    registry = MetricsRegistry()
    SharingGateway(fresh_paper_system, registry=registry)
    with pytest.raises(GatewayError, match="another gateway"):
        SharingGateway(fresh_paper_system, registry=registry)


def test_chaos_counters_and_gateway_share_the_cli_registry(tmp_path):
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="transport.drop", probability=0.1, max_fires=5),))
    result = run_gateway_loadtest(tenants=3, duration=8.0, seed=23,
                                  state_dir=str(tmp_path), chaos=plan,
                                  registry=True)
    counters = result["registry"]["counters"]
    assert any(key.startswith("chaos_") for key in counters)
    assert any(key.startswith("gateway_") for key in counters)


if __name__ == "__main__":
    CAPTURE.write_text(json.dumps({run: surface(run) for run in RUNS},
                                  indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    sys.exit(0)
