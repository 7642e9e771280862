"""What a fresh process loads: only the subsystems its run uses.

Every benchmark segment and every forked fleet worker is a fresh process, so
start-up is paid once per process.  Package names resolve on first use and
optional subsystems load with the feature that needs them.  These tests run
fresh interpreters (``PYTHONPATH=src``) and read ``sys.modules``:

* binding what the benchmark drives and building a ``care-steady``-shaped
  system loads none of the optional subsystems, and none of the standard
  library modules only they (or the command line) need;
* a durable, replicated set-up (``read-mostly-durable``'s shape) loads no
  query AST;
* serving requests loads no ``repro`` module at all — nothing compiles
  inside a measured window;
* every name a package exports still imports from it and is listed by
  ``dir()``.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The modules ``perf/probe.py`` binds its end-to-end symbols in.
BOUND_MODULES = ("repro.gateway.gateway", "repro.workloads.topology",
                 "repro.workloads.traffic", "repro.cli", "repro.runtime.fleet")

#: Subsystems a ``care-steady`` run never calls.
NOT_LOADED = (
    "repro.baselines", "repro.metrics",
    "repro.core.scenario", "repro.core.audit",
    "repro.obs.analysis", "repro.obs.export",
    "repro.ledger.archive", "repro.gateway.aio",
    "repro.relational.replication", "repro.relational.persistence",
    "repro.relational.query", "repro.relational.index",
    "repro.runtime.transport", "repro.runtime.codec",
    "repro.runtime.envelope", "repro.runtime.clock",
)

#: Standard library modules a ``care-steady`` start-up never needs:
#: ``statistics`` (with ``decimal``, ``fractions`` and ``numbers``), the
#: command line's ``argparse`` and the forked fleet's ``socket``.
STDLIB_NOT_LOADED = ("statistics", "decimal", "fractions", "argparse", "socket")

PRELUDE = """
import importlib, json, sys
def loaded():
    return {name for name in sys.modules
            if name == "repro" or name.startswith("repro.")}
"""


def run_fresh(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_a_care_steady_start_up_loads_no_optional_subsystem():
    result = run_fresh(f"""
        import repro
        for name in {BOUND_MODULES!r}:
            importlib.import_module(name)
        from repro.config import SystemConfig
        from repro.gateway import SharingGateway
        from repro.workloads.topology import TopologySpec, build_topology_system
        system = build_topology_system(TopologySpec(patients=8, researchers=0, seed=23),
                                       SystemConfig.private_chain(2.0))
        SharingGateway(system, max_batch_size=16)
        print(json.dumps(sorted(sys.modules)))
    """)
    assert sorted(set(result) & set(NOT_LOADED)) == []
    assert sorted(set(result) & set(STDLIB_NOT_LOADED)) == []


#: name → the code that builds ``system`` and ``gateway``.
SYSTEMS = {
    "hub": """
        system = build_topology_system(TopologySpec(patients=4, researchers=0, seed=23),
                                       SystemConfig.private_chain(2.0))
        gateway = SharingGateway(system, max_batch_size=16)
        """,
    "join": """
        from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig
        system = build_join_topology_system(
            TopologySpec(patients=4, researchers=0, distinct_medications=2, seed=23,
                         first_patient_id=1008),
            SystemConfig(ledger=LedgerConfig(
                consensus=ConsensusConfig(kind="poa", block_interval=2.0),
                max_transactions_per_block=16, consensus_shards=5),
                network=NetworkConfig(base_latency=0.002, latency_jitter=0.001)))
        gateway = SharingGateway(system, max_batch_size=32)
        """,
    "durable-replicated": """
        import atexit, dataclasses, shutil, tempfile
        from repro.config import DurabilityConfig, ReplicationConfig
        state_dir = tempfile.mkdtemp()
        atexit.register(shutil.rmtree, state_dir, True)
        system = build_topology_system(
            TopologySpec(patients=4, researchers=0, seed=23),
            dataclasses.replace(
                SystemConfig.private_chain(2.0),
                durability=DurabilityConfig(state_dir=state_dir),
                replication=ReplicationConfig(replicas=2, ship_interval=2.0,
                                              max_lag=30.0)))
        gateway = SharingGateway(system, max_batch_size=16, state_dir=state_dir,
                                 fsync_policy="batch")
        """,
}

SERVE = """
    from repro.config import SystemConfig
    from repro.gateway import ReadViewRequest, SharingGateway, UpdateEntryRequest
    from repro.workloads.topology import (HOSPITAL_TABLE_ID, TopologySpec,
                                          build_join_topology_system,
                                          build_topology_system)
    from repro.workloads.traffic import TrafficGenerator, default_tenant_profiles
    {build}
    before = loaded()
    if "hospital" in system.peer_names:  # a hospital batch fans out, then patients
        hospital = gateway.open_session("hospital")
        patient_ids = sorted(row["patient_id"]
                             for row in system.peer("doctor").database.table("D3"))
        for patient_id in patient_ids:
            gateway.submit(hospital, UpdateEntryRequest(
                metadata_id=HOSPITAL_TABLE_ID, key=(patient_id,),
                updates={{"mechanism_of_action": "MeA-new"}}))
        gateway.drain()
        for patient_id in patient_ids:
            session = gateway.open_session(f"patient-{{patient_id}}")
            table = f"D13&D31:{{patient_id}}"
            gateway.submit(session, ReadViewRequest(table))
            gateway.submit(session, UpdateEntryRequest(
                metadata_id=table, key=(patient_id,),
                updates={{"clinical_data": "CliD-new"}}))
    else:  # open-loop tenant traffic, half reads
        profiles = default_tenant_profiles(system, request_rate=1.0, read_fraction=0.5)
        clock = system.simulator.clock
        arrivals = TrafficGenerator(system, seed=23).open_loop(
            profiles, duration=8.0, start_time=clock.now())
        sessions = {{profile.peer: gateway.open_session(profile.peer)
                    for profile in profiles}}
        for timed in arrivals:
            clock.advance_to(timed.arrival_time)
            gateway.submit(sessions[timed.tenant], timed.request)
            if gateway.queue_depth >= 16:
                gateway.commit_once()
    gateway.drain()
    writes = gateway.metrics()["batches"]["writes_committed"]
    gateway.close()
    print(json.dumps({{"new": sorted(loaded() - before), "writes": writes}}))
"""


def test_a_durable_replicated_set_up_loads_no_query_ast():
    """Peers checkpoint and replicas bootstrap through ``persistence``; no
    peer registers a view, so nothing needs ``relational.query``."""
    result = run_fresh(textwrap.dedent("""
        from repro.config import SystemConfig
        from repro.gateway import SharingGateway
        from repro.workloads.topology import TopologySpec, build_topology_system
    """) + textwrap.dedent(SYSTEMS["durable-replicated"]) + """
print(json.dumps(sorted(loaded())))
""")
    assert "repro.relational.persistence" in result
    assert "repro.relational.query" not in result


@pytest.mark.parametrize("shape", sorted(SYSTEMS))
def test_serving_requests_loads_no_further_module(shape):
    build = textwrap.indent(textwrap.dedent(SYSTEMS[shape]), "    ")
    result = run_fresh(SERVE.format(build=build))
    assert result["writes"] > 0
    assert result["new"] == []


def test_every_exported_name_imports_from_its_package():
    result = run_fresh("""
        import pkgutil
        import repro
        packages = ["repro"] + [info.name for info in
                                pkgutil.walk_packages(repro.__path__, "repro.")
                                if info.ispkg]
        problems = []
        for package_name in packages:
            package = importlib.import_module(package_name)
            listed = set(dir(package))
            for name in package.__all__:
                if name not in listed:
                    problems.append(f"{package_name}.{name} is not in dir()")
                try:
                    getattr(package, name)
                except AttributeError as exc:
                    problems.append(f"{package_name}.{name}: {exc}")
        print(json.dumps({"packages": packages, "problems": problems}))
    """)
    assert result["problems"] == []
    assert {"repro.core", "repro.relational", "repro.runtime"} <= set(result["packages"])
