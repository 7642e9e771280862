#!/usr/bin/env python3
"""Compare two suite files written by ``run.py --reps N --out FILE``.

    python3 perf/compare.py perf/results/parent.json perf/results/change.json

One row per workload and end-to-end metric: each side's median and min–max
over its reps, the bound from BENCHMARK.json and a verdict:

* ``better``      every run of B reads better than every run of A;
* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  neither, and the run-to-run spread (interquartile range over
                  median, the wider side) exceeds the bound, so "no change"
                  cannot be told from a change of the bound's size;
* ``same``        neither, and the spread is within the bound.

The simulated-clock metrics and the state digest repeat exactly for one seed,
so they are reported as ``identical`` or ``changed``, never with a bound.
Exits 1 on any ``worse`` row or a higher ``fail_ratio``; ``--layers`` adds the
traced runs' per-layer metrics side by side (no verdicts: layers have no bounds).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def spread(values) -> float:
    """Interquartile range over median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a, b, better: str, bound: float) -> str:
    """The verdict for one metric given each side's per-rep values."""
    sign = 1.0 if better == "lower" else -1.0   # positive difference = worse
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "better"
    median_a, median_b = statistics.median(a), statistics.median(b)
    if sign * (median_b - median_a) / median_a > bound:
        return "worse"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "same"


def _cell(values) -> str:
    return f"{statistics.median(values):.4g} [{min(values):.4g}..{max(values):.4g}]"


def compare(doc_a: dict, doc_b: dict, benchmark: dict, layers: bool) -> int:
    failed = False
    same_seeds = all(doc_a["stamp"][key] == doc_b["stamp"][key]
                     for key in ("seed", "seed_stride", "size"))
    for spec in benchmark["workloads"]:
        name = spec["name"]
        if name not in doc_a["workloads"] or name not in doc_b["workloads"]:
            print(f"{name}: not in both files, skipped")
            continue
        reps_a = doc_a["workloads"][name]["reps"]
        reps_b = doc_b["workloads"][name]["reps"]
        print(f"{name}  (A: {len(reps_a)} reps, B: {len(reps_b)} reps)")
        print(f"  {'metric':<16} {'A median [min..max]':<30} "
              f"{'B median [min..max]':<30} {'bound':>6}  verdict")
        for metric in benchmark["end_to_end"]:
            a = [rep["metrics"][metric["name"]] for rep in reps_a]
            b = [rep["metrics"][metric["name"]] for rep in reps_b]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            failed = failed or outcome == "worse"
            print(f"  {metric['name']:<16} {_cell(a):<30} {_cell(b):<30} "
                  f"{metric['bound']:>6.2f}  {outcome}")
        fail_a = max(rep["fail_ratio"] for rep in reps_a)
        fail_b = max(rep["fail_ratio"] for rep in reps_b)
        if fail_b > fail_a:
            failed = True
        print(f"  {'fail_ratio':<16} {fail_a:<30.4g} {fail_b:<30.4g} {'0':>6}  "
              f"{'worse' if fail_b > fail_a else 'same'}")
        for key in reps_a[0].get("tails", {}):
            a = [rep["tails"][key] for rep in reps_a]
            b = [rep["tails"][key] for rep in reps_b]
            print(f"  {key:<16} {_cell(a):<30} {_cell(b):<30} {'none':>6}  -")
        if same_seeds:
            for key in ("sim_write_p50_s", "sim_write_p99_s", "sim_writes_per_s"):
                a = [rep["sim"][key] for rep in reps_a]
                b = [rep["sim"][key] for rep in reps_b]
                print(f"  {key:<16} {_cell(a):<30} {_cell(b):<30} {'exact':>6}  "
                      f"{'identical' if a == b else 'changed'}")
            digests_a = [rep["state_digest"] for rep in reps_a]
            digests_b = [rep["state_digest"] for rep in reps_b]
            print(f"  {'state_digest':<16} {digests_a[0][:12]:<30} "
                  f"{digests_b[0][:12]:<30} {'exact':>6}  "
                  f"{'identical' if digests_a == digests_b else 'changed'}")
        traced_a = doc_a["workloads"][name].get("traced")
        traced_b = doc_b["workloads"][name].get("traced")
        if layers and traced_a and traced_b:
            for metric in benchmark["per_layer"]:
                a = traced_a["layers"].get(metric["name"])
                b = traced_b["layers"].get(metric["name"])
                change = (f"{(b - a) / a:+.1%}" if a and b is not None else "")
                print(f"    {metric['name']:<46} {a!s:>14.12} {b!s:>14.12} "
                      f"{metric['unit']:<7} {change}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="suite file of the parent commit")
    parser.add_argument("b", help="suite file of the change")
    parser.add_argument("--layers", action="store_true",
                        help="also print the traced runs' per-layer metrics")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc_a = json.loads(pathlib.Path(args.a).read_text())
    doc_b = json.loads(pathlib.Path(args.b).read_text())
    for label, doc in (("A", doc_a), ("B", doc_b)):
        stamp = doc["stamp"]
        print(f"{label}: commit {stamp['commit']}  python {stamp['python']}  "
              f"nproc {stamp['nproc']}  seed {stamp['seed']}+{stamp['seed_stride']}i  "
              f"reps {stamp['reps']}  size {stamp['size']}")
    return compare(doc_a, doc_b, benchmark, args.layers)


if __name__ == "__main__":
    sys.exit(main())
