"""One runner for the extension acceptance gates (E11–E19).

Each ``bench_<name>.py`` listed in :data:`GATES` defines its experiment once:
``run(quick, out) -> dict`` measures it and ``gate(result) -> list`` names
every acceptance condition the result fails.  This runner calls both for each
requested gate, prints one line per gate, writes ``<out>/<name>.json`` (the
result plus its failures) and, after running them all, exits 1 if any gate
failed.  An exception raised by ``run`` or ``gate`` is that gate's failure
(its traceback goes to stderr)::

    PYTHONPATH=src python benchmarks/gate.py                   # all nine
    PYTHONPATH=src python benchmarks/gate.py chaos_soak --quick
    PYTHONPATH=src python benchmarks/gate.py --quick --out bench-artifacts/gates

``--quick`` selects each module's reduced ``QUICK_*`` sizes (the CI smoke
run); without it the ``FULL_*`` sizes run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time
import traceback
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

GATES = (
    "gateway_throughput",   # E11/E12 batched commits, cache, tracing overhead
    "delta_propagation",    # E12 delta vs full recompute
    "sharded_consensus",    # E13 consensus lanes + cross-peer folding
    "async_gateway",        # E14 asyncio pump vs sync eager drain
    "durability",           # E15 fsync policies + recovery
    "chaos_soak",           # E16 fault convergence + latency shedding
    "parallel_cascade",     # E17 parallel cascades + join deltas
    "read_replicas",        # E18 WAL-shipping read replicas
    "gateway_fleet",        # E19 multi-process fleet parity
)

DEFAULT_OUT = Path(__file__).resolve().parent / "results"


def run_gate(name: str, quick: bool, out: Optional[Path]) -> Tuple[Optional[dict], List[str]]:
    """``(result, failures)`` of one gate; ``result`` is None if ``run`` raised."""
    result = None
    try:
        module = importlib.import_module(f"bench_{name}")
        result = module.run(quick, out)
        return result, module.gate(result)
    except Exception as exc:  # noqa: BLE001 - a crashed experiment fails its gate
        traceback.print_exc()
        return result, [f"raised {type(exc).__name__}: {exc}"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the extension acceptance gates (E11–E19).")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"gates to run (default: all of {', '.join(GATES)})")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (the CI smoke run)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for <name>.json results "
                             "(default: benchmarks/results)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(GATES)}")
    args.out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in args.names or GATES:
        started = time.perf_counter()
        result, failures = run_gate(name, args.quick, args.out)
        seconds = time.perf_counter() - started
        (args.out / f"{name}.json").write_text(json.dumps(
            {"gate": name, "quick": args.quick, "seconds": seconds,
             "failures": failures, "result": result},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
        verdict = "FAIL" if failures else "PASS"
        detail = f": {'; '.join(failures)}" if failures else ""
        print(f"{verdict} {name} ({seconds:.1f} s){detail}", flush=True)
        failed += bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
