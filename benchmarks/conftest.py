"""Shared helpers for the paper-reproduction benchmarks.

Each pytest benchmark here (Fig. 1/3/4/5, §4, §5, the ablations, bx scaling)
regenerates one artifact of the paper: it prints the rows/series that
artifact describes and also writes them to
``benchmarks/results/<experiment>.txt``.  The extension gates (E11–E19) are
not pytest tests; ``benchmarks/gate.py`` runs them.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    """``--quick``: run benchmarks on a reduced size grid.

    The serialization ablation's wire-codec leg repeats fewer times with it,
    still exercising the full code path and its correctness oracles.
    """
    parser.addoption("--quick", action="store_true", default=False,
                     help="run benchmarks on a reduced size grid (CI smoke mode)")


@pytest.fixture
def quick(request) -> bool:
    """True when the run should use the reduced (CI smoke) size grid."""
    return bool(request.config.getoption("--quick"))


def emit_result(experiment_id: str, text: str) -> None:
    """Print an experiment's result table and persist it under results/."""
    banner = f"\n===== {experiment_id} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture
def emit():
    """Fixture handing benches the result emitter."""
    return emit_result
