#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command, named metrics per workload.

One *run* (what BENCHMARK.json's command starts)::

    python3 perf/run.py --workload care-steady --seed 23 --seconds 10 --trace 0

repeats fixed-size *segments* of the workload — each a fresh process building
a fresh system (see ``segment.py``) — until ``--seconds`` of measured work
have passed, checks every segment's outputs, prints every end-to-end metric
by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` it runs
one untraced and one traced segment and reports the per-layer metrics instead
(end-to-end numbers never come from a traced process).

A *suite* (what a person comparing two commits starts)::

    python3 perf/run.py --reps 3 --seed 23 --trace 1 --out perf/results/a.json

is ``--reps`` runs of every workload (or of ``--workload``) plus one traced
run each, written as one stamped JSON file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from compare import spread  # noqa: E402
from layers import percentile, per_layer_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Every run measures at least this many segments, however long they take,
#: so that ``setup_s`` is a median of several set-ups and the other metrics
#: have segments to choose the quietest from — most needed on a slow machine,
#: where ``--seconds`` alone would buy fewer.
MIN_SEGMENTS = 5
#: A segment that takes longer than this is stopped and fails the run.
SEGMENT_TIMEOUT_S = 170

#: name → (unit, better).  ``setup_s`` first; bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "req_per_s": ("1/s", "higher"),
    "write_p50_ms": ("ms", "lower"),
    "read_p50_us": ("us", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
#: Measured and printed the same way, but without a bound: a tail is the
#: last commit or two of a segment, and one burst of machine noise there
#: moves it by more than any bound BENCHMARK.json may set (see README).
#: BENCHMARK.json lists them per layer, as ``latency.*``.
TAILS = {
    "write_p95_ms": ("ms", "lower"),
    "read_p95_us": ("us", "lower"),
}


class SegmentFailed(RuntimeError):
    pass


def run_segment(workload: str, seed: int, size: str, trace: bool = False) -> dict:
    """Start ``segment.py`` in a fresh process and return the JSON it reports."""
    RESULTS.mkdir(exist_ok=True)
    state_dir = RESULTS / "state" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    state_dir.mkdir(parents=True)
    command = [sys.executable, str(HERE / "segment.py"), "--workload", workload,
               "--seed", str(seed), "--size", size, "--trace", str(int(trace)),
               "--state-dir", str(state_dir),
               "--trace-out", str(RESULTS / f"trace-{workload}.jsonl"),
               "--spawned-at", repr(time.perf_counter())]
    # Its own session, so a stop reaches the fleet workers it forked as well.
    # One hash seed, so set and dict orders (and with them memory layout and
    # timings) do not differ from process to process.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=str(ROOT), start_new_session=True,
                               env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        stdout, _ = process.communicate(timeout=SEGMENT_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        raise
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if process.returncode != 0:
        raise SegmentFailed(f"{workload} segment exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def segment_failures(segment: dict) -> list:
    """Names of the output checks one segment failed."""
    return [name for name, passed in sorted(segment["checks"].items()) if not passed]


def segment_metrics(segment: dict) -> dict:
    """The end-to-end metrics and tails of one segment."""
    return {
        "setup_s": segment["setup_s"],
        "req_per_s": (segment["attempted"] - segment["failed"]) / segment["window_s"],
        "write_p50_ms": percentile(segment["write_ms"], 0.50),
        "write_p95_ms": percentile(segment["write_ms"], 0.95),
        "read_p50_us": percentile(segment["read_us"], 0.50),
        "read_p95_us": percentile(segment["read_us"], 0.95),
        "peak_rss_mb": segment["peak_rss_mb"],
    }


def measure(workload: str, seed: int, seconds: float, size: str = "full") -> dict:
    """One untraced run: segments until ``seconds`` of measured work (and at
    least MIN_SEGMENTS).  Returns metrics, per-segment values and verdicts.

    Every segment of a run has the same inputs, so its metrics differ only by
    what else the machine was doing.  That noise only ever slows a segment
    down, so each metric is reported from the segment where it read best —
    except ``setup_s`` and ``peak_rss_mb``, which are medians.
    """
    segments = []
    measured = 0.0
    while len(segments) < MIN_SEGMENTS or measured < seconds:
        segment = run_segment(workload, seed, size)
        segments.append(segment)
        measured += segment["window_s"]
    per_segment = [segment_metrics(segment) for segment in segments]
    best = {}
    for name, (_unit, better) in {**END_TO_END, **TAILS}.items():
        values = [row[name] for row in per_segment]
        if name in ("setup_s", "peak_rss_mb"):
            best[name] = statistics.median(values)
        else:
            best[name] = min(values) if better == "lower" else max(values)
    failures = sorted({name for segment in segments
                       for name in segment_failures(segment)})
    digests = sorted({segment["state_digest"] for segment in segments})
    if len(digests) > 1:
        failures.append("state_digest_differs_between_segments")
    attempted = sum(segment["attempted"] for segment in segments)
    failed = sum(segment["failed"] for segment in segments)
    sims = segments[0]["sim_write_s"]
    return {
        "workload": workload, "seed": seed, "size": size,
        "metrics": {name: best[name] for name in END_TO_END},
        "tails": {name: best[name] for name in TAILS},
        # Deterministic for a seed; reported with the end-to-end numbers for
        # people, listed per layer in BENCHMARK.json (see README).
        "sim": {
            "sim_write_p50_s": percentile(sims, 0.50),
            "sim_write_p99_s": percentile(sims, 0.99),
            "sim_writes_per_s": segments[0]["sim_writes_per_s"],
        },
        "fail_ratio": failed / attempted,
        "attempted": attempted, "failed": failed,
        "samples": {"segments": len(segments),
                    "writes_per_segment": len(segments[0]["write_ms"]),
                    "reads_per_segment": len(segments[0]["read_us"])},
        "per_segment": per_segment,
        "state_digest": digests[0],
        "failed_checks": failures,
        "correct": not failures and failed == 0,
    }


def measure_traced(workload: str, seed: int, size: str = "full") -> dict:
    """One traced run: an untraced segment for the reference wall, then a
    traced one.  Returns the per-layer metrics and what the trace found."""
    plain = run_segment(workload, seed, size)
    traced = run_segment(workload, seed, size, trace=True)
    layers = traced["layers"]
    # The three per-layer values that need the untraced segment.
    layers["trace.overhead_ratio"] = traced["window_s"] / plain["window_s"]
    layers["latency.write_p95_ms"] = percentile(plain["write_ms"], 0.95)
    layers["latency.read_p95_us"] = percentile(plain["read_us"], 0.95)
    failures = sorted(set(segment_failures(plain)) | set(segment_failures(traced)))
    if plain["state_digest"] != traced["state_digest"]:
        failures.append("tracing_changed_the_state_digest")
    return {
        "workload": workload, "seed": seed, "size": size,
        "layers": layers,
        "self_ms_ranking": traced["self_ms_ranking"],
        "unbound": traced["unbound"],
        "crosschecks": traced["crosschecks"],
        "attempted": traced["attempted"], "failed": traced["failed"],
        "state_digest": traced["state_digest"],
        "failed_checks": failures,
        "correct": not failures and traced["failed"] == 0,
    }


def contract_line(result: dict, spec: dict, values: dict) -> str:
    """The benchmark's last output line.  An unbound layer metric is ``null``
    everywhere else and 0 here, where every value must be a number."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name] if values[name] is not None else 0,
                           "unit": unit}
                    for name, (unit, _better) in spec.items()},
    })


def print_run(result: dict) -> None:
    samples = result["samples"]
    print(f"{result['workload']}  seed={result['seed']}  "
          f"segments={samples['segments']}  each {samples['writes_per_segment']} writes "
          f"+ {samples['reads_per_segment']} reads")
    for name, (unit, _better) in END_TO_END.items():
        print(f"  {name:<18} {result['metrics'][name]:>14.4f} {unit}")
    for name, (unit, _better) in TAILS.items():
        print(f"  {name:<18} {result['tails'][name]:>14.4f} {unit} (no bound)")
    for name, value in result["sim"].items():
        unit = "1/sim-s" if name.endswith("per_s") else "sim-s"
        print(f"  {name:<18} {value:>14.4f} {unit} (repeats exactly for a seed)")
    print(f"  {'fail_ratio':<18} {result['fail_ratio']:>14.4f} ratio")
    print(f"  state_digest       {result['state_digest']}")
    print("  generator lateness 0 (arrivals are replayed on the simulated clock)")
    if result["failed_checks"]:
        print(f"  FAILED CHECKS: {', '.join(result['failed_checks'])}")


def print_traced(result: dict) -> None:
    print(f"{result['workload']}  seed={result['seed']}  traced")
    for item in per_layer_spec():
        value = result["layers"][item["name"]]
        shown = "null (unbound)" if value is None else f"{value:.4f}"
        print(f"  {item['name']:<48} {shown:>16} {item['unit']}")
    print("  top self time (ms):")
    for name, self_ms in result["self_ms_ranking"]:
        print(f"    {name:<40} {self_ms:>12.1f}")
    for name, check in sorted(result["crosschecks"].items()):
        verdict = "ok" if check["ok"] else "MISMATCH"
        print(f"  cross-check {verdict}: {name}: "
              f"wrapped {check['wrapped']} vs own {check['own']}")
    if result["unbound"]:
        print(f"  unbound: {', '.join(result['unbound'])}")
    if result["failed_checks"]:
        print(f"  FAILED CHECKS: {', '.join(result['failed_checks'])}")


def stamp(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed, "reps": args.reps,
            "seed_stride": args.seed_stride, "seconds": args.seconds,
            "size": "smoke" if args.smoke else "full",
            "sizes": {name: WORKLOADS[name]["smoke" if args.smoke else "full"]
                      for name in WORKLOADS}}


def suite(args: argparse.Namespace) -> int:
    """``--reps`` runs per workload (+ one traced), one stamped JSON file."""
    size = "smoke" if args.smoke else "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    document = {"stamp": stamp(args), "workloads": {}}
    ok = True
    for name in names:
        reps = []
        for rep in range(args.reps):
            result = measure(name, args.seed + rep * args.seed_stride,
                             args.seconds, size)
            print_run(result)
            reps.append(result)
        entry = {"reps": reps}
        if args.seed_stride == 0 and len({rep["state_digest"] for rep in reps}) > 1:
            entry["digest_mismatch"] = True
            print(f"{name}: state_digest differs between reps of one seed")
        if args.trace:
            entry["traced"] = measure_traced(name, args.seed, size)
            print_traced(entry["traced"])
        ok = ok and all(rep["correct"] for rep in reps) \
            and not entry.get("digest_mismatch") \
            and entry.get("traced", {"correct": True})["correct"]
        document["workloads"][name] = entry
        print(f"{name}: median [min .. max] over {args.reps} reps; "
              f"spread = interquartile range / median")
        for metric, (unit, _better) in END_TO_END.items():
            values = [rep["metrics"][metric] for rep in reps]
            print(f"  {metric:<18} {statistics.median(values):>12.4f} "
                  f"[{min(values):.4f} .. {max(values):.4f}] {unit}"
                  f"  spread {spread(values):.3f}")
    out = pathlib.Path(args.out) if args.out else RESULTS / "suite.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=23,
                        help="seed of the data: every peer's records (default 23)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure at least this long per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced segment")
    parser.add_argument("--reps", type=int,
                        help="suite mode: this many runs per workload, written to --out")
    parser.add_argument("--seed-stride", type=int, default=0,
                        help="suite mode: rep i uses seed + i*stride (0: one seed, "
                             "state digests must then repeat)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test only")
    parser.add_argument("--out", help="suite mode: result file "
                                      "(default perf/results/suite.json)")
    args = parser.parse_args(argv)
    if args.reps is not None:
        return suite(args)
    if args.workload is None:
        parser.error("--workload is required unless --reps starts a suite")
    size = "smoke" if args.smoke else "full"
    if args.trace:
        result = measure_traced(args.workload, args.seed, size)
        print_traced(result)
        spec = {item["name"]: (item["unit"], item["better"])
                for item in per_layer_spec()}
        print(contract_line(result, spec, result["layers"]))
    else:
        result = measure(args.workload, args.seed, args.seconds, size)
        print_run(result)
        print(contract_line(result, END_TO_END, result["metrics"]))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SegmentFailed as exc:
        print(f"perf: {exc}", file=sys.stderr)
        sys.exit(2)
