"""One segment of one workload in a fresh process: build, drive, check, report.

Started by ``run.py``; prints one JSON object as its last line.  A segment is
the unit everything is measured on: a fixed-size request trace against a
freshly built system, so cost per request (which grows with contract
history) is the same in every segment of a workload.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import sys
import threading

import layers
import probe as probing
from workloads import WORKLOADS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
EVERYTHING = (-math.inf, math.inf)


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` — never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perf: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perf: imported repro from {repro.__file__}, not {SRC}")


class Harness:
    """The wrappers of one process and what they have collected so far."""

    def __init__(self, trace: bool, trace_out):
        self.trace_out = trace_out
        self.recorder = probing.SpanRecorder() if trace else None
        self.unbound = (probing.install_layer_wrappers(self.recorder)
                        if trace else {})
        self.counters_at_start = {}
        self.probe = probing.EndToEndProbe(
            on_first_submit=self._snapshot_counters if trace else None)
        self.probe.install()
        self._wrap_worker_slice()

    def _snapshot_counters(self, gateway) -> None:
        self.counters_at_start.update(layers.layer_counters(gateway))

    def _wrap_worker_slice(self) -> None:
        """Forked fleet workers inherit every wrapper; this one makes each
        return its part inside its slice result."""
        module, attr, original = probing.resolve(
            "repro.runtime.fleet.run_worker_slice")

        def run_worker_slice(spec):
            result = original(spec)
            result["perf"] = self.part()
            result["perf"]["slice_wall_s"] = result["wall_seconds"]
            if self.recorder is not None:
                self.recorder.write_jsonl(f"{self.trace_out}.{spec.name}")
            return result

        setattr(module, attr, run_worker_slice)

    def part(self) -> dict:
        """What one process that drove a gateway reports: samples, checks and
        (traced) its span table and counter deltas.  JSON-able, so a fleet
        worker can return it inside its slice result."""
        part = self.probe.export()
        gateway = self.probe.gateway
        part.update(probing.system_checks(gateway.system))
        if self.recorder is None:
            return part
        driver = threading.get_ident()
        window = (part["first_submit_at"], part["last_terminal_at"])
        end = layers.layer_counters(gateway)
        part["table"] = probing.span_table(
            self.recorder, window, driver, probing.ANY_PHASE)
        part["counters"] = {key: end[key] - self.counters_at_start[key]
                            for key in end}
        end["ledger.blocks_mined"] = sum(
            node.miner.blocks_mined for node in gateway.system.simulator.nodes
            if node.miner is not None)
        part["crosschecks"] = layers.crosschecks(
            probing.span_table(self.recorder, EVERYTHING, driver), end)
        part["spans"] = self.recorder.span_count()
        return part


def merge_tables(tables) -> dict:
    merged = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0,
                                            "driver_self_ms": 0.0, "notes": []})
            for field in ("count", "busy_ms", "self_ms", "driver_self_ms"):
                into[field] += row[field]
            into["notes"].extend(row["notes"])
    return merged


def end_to_end_report(parts, extra_checks) -> dict:
    checks = dict(extra_checks)
    for part in parts:
        for name, passed in part["checks"].items():
            checks[name] = checks.get(name, True) and passed
    checks["every_response_terminal"] = all(part["not_terminal"] == 0 for part in parts)
    # Fleet workers have been joined, so their peak is in RUSAGE_CHILDREN.
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        # CLOCK_MONOTONIC is one clock for every process on the machine.
        "window_s": (max(part["last_terminal_at"] for part in parts)
                     - min(part["first_submit_at"] for part in parts)),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "write_ms": [v for part in parts for v in part["write_ms"]],
        "read_us": [v for part in parts for v in part["read_us"]],
        "sim_write_s": [v for part in parts for v in part["sim_write_s"]],
        # Fleet workers' simulated clocks run side by side: their rates add up.
        "sim_writes_per_s": sum(len(part["sim_write_s"]) / part["sim_elapsed_s"]
                                for part in parts),
        "peak_rss_mb": peak_kib / 1024.0,
        "checks": checks,
        "state_digest": probing.fingerprint_digest(
            [part["fingerprints"] for part in parts]),
    }


def layer_report(harness: Harness, parts, fleet, report) -> dict:
    recorder = harness.recorder
    tables = [part["table"] for part in parts]
    spans = sum(part["spans"] for part in parts)
    fleet_numbers = None
    if fleet is not None:
        # The coordinator's own spans are the fleet transport's codec calls.
        tables.append(probing.span_table(recorder, EVERYTHING, threading.get_ident()))
        spans += recorder.span_count()
        slices = [part["slice_wall_s"] for part in parts]
        fleet_numbers = {
            "overhead_ms": (fleet["wall_seconds"] - max(slices)) * 1e3,
            "worker_skew_ratio": (max(slices) - min(slices)) / max(slices),
            "envelopes": sum(stats["sent"] + stats["received"]
                             for stats in fleet["transport"].values()),
        }
    table = merge_tables(tables)
    counters, crosschecks = {}, {}
    for part in parts:
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for name, check in part["crosschecks"].items():
            into = crosschecks.setdefault(name, {"wrapped": 0, "own": 0})
            into["wrapped"] += check["wrapped"]
            into["own"] += check["own"]
    for check in crosschecks.values():
        check["ok"] = check["wrapped"] == check["own"]
    # Coverage is per driving thread: the workers' self time over their windows.
    driver_self_ms = sum(row["driver_self_ms"] for part in parts
                         for row in part["table"].values())
    driver_windows_ms = sum(part["last_terminal_at"] - part["first_submit_at"]
                            for part in parts) * 1e3
    return {
        "layers": layers.layer_metrics(
            table, counters,
            sim={"write_s": report["sim_write_s"],
                 "writes_per_s": report["sim_writes_per_s"]},
            fleet=fleet_numbers,
            trace={"coverage_ratio": driver_self_ms / driver_windows_ms,
                   "spans": spans},
            unbound_names={name for names in harness.unbound.values()
                           for name in names}),
        "self_ms_ranking": sorted(((name, row["self_ms"]) for name, row in table.items()),
                                  key=lambda item: -item[1])[:12],
        "unbound": sorted(harness.unbound),
        "crosschecks": crosschecks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's perf_counter() just before it started "
                             "this process")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    import_repro()
    workload = WORKLOADS[args.workload]
    harness = Harness(bool(args.trace), args.trace_out)

    context = workload["setup"](args.seed, workload[args.size], args.state_dir)
    workload["drive"](context)
    fleet = context.get("fleet")
    report = {"workload": args.workload, "seed": args.seed, "size": args.size}
    context["responses"] = harness.probe.responses
    extra_checks = workload["verify"](context)
    parts = ([worker["perf"] for _name, worker in sorted(fleet["workers"].items())]
             if fleet is not None else [harness.part()])
    # Fleet: the latest worker to reach its first submit.
    report["setup_s"] = (max(part["first_submit_at"] for part in parts)
                         - args.spawned_at)
    report.update(end_to_end_report(parts, extra_checks))
    if harness.recorder is not None:
        report.update(layer_report(harness, parts, fleet, report))
        if fleet is None:
            harness.recorder.write_jsonl(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
