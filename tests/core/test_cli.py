"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
import os
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.config import LoadtestSpec


class TestCli:
    def test_scenario_command(self, capsys):
        assert main(["scenario"]) == 0
        output = capsys.readouterr().out
        assert "D1" in output and "D3" in output
        assert "shared tables consistent: True" in output

    def test_update_command(self, capsys):
        assert main(["update", "--interval", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "Workflow 'update'" in output
        assert "MeA1-revised" in output

    def test_cascade_command(self, capsys):
        assert main(["cascade", "--interval", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "two tablets every 12h" in output

    def test_audit_command(self, capsys):
        assert main(["audit", "--via", "researcher"]) == 0
        output = capsys.readouterr().out
        assert "integrity=OK" in output
        assert "PASSED" in output

    def test_throughput_command(self, capsys):
        assert main(["throughput", "--interval", "2", "--updates", "2"]) == 0
        output = capsys.readouterr().out
        assert "throughput (updates/s)" in output

    def test_exposure_command(self, capsys):
        assert main(["exposure"]) == 0
        output = capsys.readouterr().out
        assert "Researcher" in output and "unnecessary" in output

    def test_gateway_loadtest_command(self, capsys):
        assert main(["gateway-loadtest", "--tenants", "2", "--duration", "5",
                     "--interval", "1"]) == 0
        output = capsys.readouterr().out
        assert "Gateway load test" in output
        assert "cache hit rate" in output

    def test_gateway_loadtest_async_transport(self, capsys):
        import json

        assert main(["gateway-loadtest", "--tenants", "2", "--duration", "5",
                     "--interval", "1", "--transport", "async", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transport"] == "async"
        stats = payload["metrics"]["async_transport"]
        assert stats["transport"] == "async"
        assert stats["commits"] >= 1
        assert stats["pending_futures"] == 0
        # Every accepted write resolved before the loadtest returned.
        assert payload["metrics"]["queue"]["outstanding_writes"] == 0

    def test_gateway_loadtest_async_pretty_output(self, capsys):
        assert main(["gateway-loadtest", "--tenants", "2", "--duration", "4",
                     "--interval", "1", "--transport", "async"]) == 0
        output = capsys.readouterr().out
        assert "pump seals (depth/deadline/idle/flush)" in output
        assert "admitted during commit" in output

    def test_gateway_loadtest_rejects_processes_below_one(self, capsys):
        """--processes 0 (or negative) used to run one process silently."""
        for processes in ("0", "-3"):
            assert main(["gateway-loadtest", "--processes", processes,
                         "--tenants", "2", "--duration", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("gateway-loadtest: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["gateway-loadtest", "trace", "metrics"])
    def test_invalid_spec_is_one_line_and_exit_2(self, command, capsys):
        """trace / metrics share gateway-loadtest's error path: no traceback."""
        assert main([command, "--tenants", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{command}: ")
        assert captured.err.count("\n") == 1

    def test_gateway_loadtest_rejects_unknown_transport(self):
        from repro.cli import run_gateway_loadtest

        with pytest.raises(ValueError):
            run_gateway_loadtest(tenants=2, duration=2, transport="carrier-pigeon")

    def test_json_flag_emits_machine_readable_output(self, capsys):
        import json

        assert main(["throughput", "--interval", "2", "--updates", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["updates_accepted"] == 2
        assert payload["throughput"] > 0

        assert main(["gateway-loadtest", "--tenants", "2", "--duration", "5",
                     "--interval", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tenants"] == 2
        assert "cache" in payload["metrics"]

        assert main(["update", "--interval", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["succeeded"] is True

        assert main(["scenario", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is True

        assert main(["audit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["integrity"] is True and payload["spec_check_passed"] is True

        assert main(["cascade", "--interval", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cascaded"]

        assert main(["exposure", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "exposure_counts" in payload

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])


#: The hand-written argparse options of the three load-test subcommands as
#: they stood before they were generated from ``LoadtestSpec``'s fields:
#: ``{flag: (dest, type, default, choices, is-store-true)}``, read from
#: ``build_parser()`` on the parent commit.
GOLDEN_OPTIONS = {
    "gateway-loadtest": {
        "--json": ("json", None, False, None, True),
        "--tenants": ("tenants", "int", 8, None, False),
        "--duration": ("duration", "float", 30.0, None, False),
        "--rate": ("rate", "float", 1.0, None, False),
        "--read-fraction": ("read_fraction", "float", 0.5, None, False),
        "--interval": ("interval", "float", 2.0, None, False),
        "--batch-size": ("batch_size", "int", 16, None, False),
        "--seed": ("seed", "int", 23, None, False),
        "--rate-limit": ("rate_limit", "float", 0.0, None, False),
        "--transport": ("transport", None, "sync", ("sync", "async"), False),
        "--max-delay": ("max_delay", "float", 1.0, None, False),
        "--max-queue-depth": ("max_queue_depth", "int", None, None, False),
        "--state-dir": ("state_dir", None, None, None, False),
        "--fsync-policy": ("fsync_policy", None, None,
                           ("always", "batch", "never"), False),
        "--max-responses": ("max_responses", "int", None, None, False),
        "--trace": ("trace", None, False, None, True),
        "--trace-out": ("trace_out", None, None, None, False),
        "--latency-target": ("latency_target", "float", None, None, False),
        "--chaos": ("chaos", None, None, None, False),
        "--chaos-events-out": ("chaos_events_out", None, None, None, False),
        "--replicas": ("replicas", "int", 0, None, False),
        "--replica-ship-interval": ("replica_ship_interval", "float", 0.0,
                                    None, False),
        "--replica-max-lag": ("replica_max_lag", "float", 30.0, None, False),
        "--processes": ("processes", "int", 1, None, False),
        "--fleet-mode": ("fleet_mode", None, "multiprocess",
                         ("multiprocess", "loopback"), False),
        "--wire-codec": ("wire_codec", None, None,
                         ("canonical-json", "binary"), False),
    },
    "trace": {
        "--json": ("json", None, False, None, True),
        "--tenants": ("tenants", "int", 4, None, False),
        "--duration": ("duration", "float", 10.0, None, False),
        "--interval": ("interval", "float", 2.0, None, False),
        "--seed": ("seed", "int", 23, None, False),
        "--out": ("out", None, None, None, False),
    },
    "metrics": {
        "--json": ("json", None, False, None, True),
        "--tenants": ("tenants", "int", 4, None, False),
        "--duration": ("duration", "float", 10.0, None, False),
        "--interval": ("interval", "float", 2.0, None, False),
        "--seed": ("seed", "int", 23, None, False),
    },
}


def _parser_options(command):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {
        action.option_strings[0]: (
            action.dest, action.type.__name__ if action.type else None,
            action.default, tuple(action.choices) if action.choices else None,
            isinstance(action, argparse._StoreTrueAction))
        for action in subparsers.choices[command]._actions
        if action.option_strings and action.dest != "help"}


#: A spec with every field away from its default.
FULL_SPEC_FIELDS = dict(
    tenants=5, duration=7.5, rate=2.0, read_fraction=0.25, interval=1.5,
    batch_size=3, seed=99, rate_limit=4.0, transport="async", max_delay=0.5,
    max_queue_depth=6, state_dir="state", fsync_policy="always",
    max_responses=10, trace=True, trace_out="spans.jsonl",
    latency_target=3.0, chaos="plan.json", chaos_events_out="events.jsonl",
    replicas=2, replica_ship_interval=1.0, replica_max_lag=9.0, processes=2,
    fleet_mode="loopback", wire_codec="binary", registry=True,
    include_fingerprints=True)


class TestLoadtestSpec:
    @pytest.mark.parametrize("command", sorted(GOLDEN_OPTIONS))
    def test_generated_options_are_the_hand_written_ones(self, command):
        assert _parser_options(command) == GOLDEN_OPTIONS[command]

    def test_every_option_is_declared_once_as_a_spec_field(self):
        """The 25 flags + ``registry`` + ``include_fingerprints``, no more."""
        names = [field.name for field in dataclasses.fields(LoadtestSpec)]
        flags = {"--" + name.replace("_", "-") for name in names}
        assert len(names) == len(set(names)) == 27
        assert (flags - {"--registry", "--include-fingerprints"}
                == set(GOLDEN_OPTIONS["gateway-loadtest"]) - {"--json"})
        assert set(FULL_SPEC_FIELDS) == set(names)
        default = LoadtestSpec()
        assert all(getattr(default, name) != value
                   for name, value in FULL_SPEC_FIELDS.items())

    def test_readme_flag_table_is_the_field_help(self):
        """The README's option table is the field metadata, row for row."""
        readme = (pathlib.Path(__file__).resolve().parents[2]
                  / "README.md").read_text(encoding="utf-8")
        for field in dataclasses.fields(LoadtestSpec):
            if "help" not in field.metadata:
                continue
            flag = "--" + field.name.replace("_", "-")
            if field.metadata["choices"]:
                flag += " {" + ",".join(field.metadata["choices"]) + "}"
            row = f"| `{flag}` | `{field.default}` | {field.metadata['help']} |"
            assert row in readme, f"README flag table is stale for {flag}"

    @pytest.mark.parametrize("codec", ["canonical-json", "binary"])
    @pytest.mark.parametrize("chaos_form", ["object", "dict", "path"])
    def test_spec_round_trips_through_the_wire_codecs(self, codec, chaos_form,
                                                      tmp_path):
        from repro.cli import default_soak_plan
        from repro.runtime.codec import get_codec

        plan = default_soak_plan(tenants=3, rounds=4)
        chaos = {"object": plan, "dict": plan.to_dict(),
                 "path": tmp_path / "plan.json"}[chaos_form]
        spec = LoadtestSpec(**{**FULL_SPEC_FIELDS, "chaos": chaos,
                               "state_dir": tmp_path / "state"})
        # The stored form is JSON-able whatever form the caller passed.
        assert spec.chaos == (str(tmp_path / "plan.json")
                              if chaos_form == "path" else plan.to_dict())
        assert spec.state_dir == str(tmp_path / "state")
        wire = get_codec(codec)
        assert LoadtestSpec.from_dict(
            wire.decode(wire.encode(spec.to_dict()))) == spec
        assert LoadtestSpec.from_dict(json.loads(
            json.dumps(spec.to_dict()))) == spec

    def test_spec_is_validated_on_construction(self):
        for bad in (dict(tenants=0), dict(processes=0), dict(replicas=-1),
                    dict(transport="carrier-pigeon"), dict(fleet_mode="rdma"),
                    dict(fsync_policy="sometimes"), dict(wire_codec="xml")):
            with pytest.raises(ValueError):
                LoadtestSpec(**bad)
        with pytest.raises(TypeError):
            LoadtestSpec(tenant=3)

    def test_for_worker_derives_share_seed_and_sub_paths(self):
        spec = LoadtestSpec(tenants=5, processes=2, seed=40, state_dir="s",
                            trace_out="t", chaos_events_out="e", rate=3.0)
        first, second = (spec.for_worker(index, f"w{index}")
                         for index in range(2))
        assert (first.tenants, second.tenants) == (3, 2)
        assert (first.seed, second.seed) == (40, 41)
        assert (second.state_dir, second.trace_out, second.chaos_events_out) == (
            os.path.join("s", "w1"), os.path.join("t", "w1"),
            os.path.join("e", "w1"))
        assert first.processes == 1 and first.rate == 3.0
        assert LoadtestSpec(tenants=2, processes=2).for_worker(0, "w").state_dir is None

    def test_engine_keyword_shapes_still_work(self, tmp_path):
        """The keyword sets perf/, E19 and the trace-determinism tests call
        the two engines with, and the TypeError an unknown keyword raises."""
        from repro.cli import run_gateway_fleet, run_gateway_loadtest

        fleet = run_gateway_fleet(
            processes=2, tenants=4, duration=4.0, read_fraction=0.5, seed=23,
            wire_codec="binary", mode="loopback", include_fingerprints=True)
        assert set(fleet["workers"]) == {"worker-0", "worker-1"}
        assert {"wall_seconds", "transport", "processes", "tenants",
                "wire_codec"} <= set(fleet)
        assert all(worker["fingerprints"] and worker["wall_seconds"] > 0
                   for worker in fleet["workers"].values())
        e19 = run_gateway_loadtest(
            tenants=2, duration=4.0, rate=1.0, interval=1.0, batch_size=8,
            seed=23, include_fingerprints=True)
        assert e19["fingerprints"] and "registry" not in e19
        traced = run_gateway_loadtest(
            tenants=2, duration=4.0, seed=23, interval=1.0,
            state_dir=str(tmp_path / "state"),
            trace=True, trace_out=str(tmp_path / "spans.jsonl"))
        assert traced["trace"]["export_path"] == str(tmp_path / "spans.jsonl")
        assert run_gateway_loadtest(LoadtestSpec(tenants=2, duration=4.0),
                                    seed=24)["tenants"] == 2
        with pytest.raises(TypeError):
            run_gateway_loadtest(tenants=2, colour="blue")
        with pytest.raises(TypeError):
            run_gateway_fleet(processes=2, colour="blue")

    def test_replica_peers_get_the_runs_fsync_policy(self, tmp_path, monkeypatch):
        """With replicas the peers' WALs used to open with ``batch`` whatever
        --fsync-policy said (only the response journal honoured it)."""
        from repro.cli import run_gateway_loadtest
        from repro.workloads import topology

        seen = []
        build = topology.build_topology_system

        def spy(spec, config):
            seen.append(config.durability)
            return build(spec, config)

        monkeypatch.setattr(topology, "build_topology_system", spy)
        result = run_gateway_loadtest(tenants=2, duration=4.0, interval=1.0,
                                      replicas=1, state_dir=str(tmp_path),
                                      fsync_policy="always")
        assert result["metrics"]["replication"]["enabled"]
        assert [d.fsync_policy for d in seen] == ["always"]
        assert seen[0].state_dir == str(tmp_path)

    def test_latency_target_reaches_every_workers_gateway(self):
        """``--latency-target`` is carried by the system's ResilienceConfig,
        which each fleet worker builds through the same function."""
        from repro.cli import run_gateway_fleet, run_gateway_loadtest

        fleet = run_gateway_fleet(processes=2, tenants=4, duration=4.0,
                                  interval=1.0, latency_target=2.0,
                                  mode="loopback")
        assert [worker["metrics"]["resilience"]["latency_target"]
                for worker in fleet["workers"].values()] == [2.0, 2.0]
        default = run_gateway_loadtest(tenants=2, duration=4.0, interval=1.0)
        assert default["metrics"]["resilience"]["latency_target"] is None
