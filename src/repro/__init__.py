"""repro — reproduction of "Blockchain-based Bidirectional Updates on
Fine-grained Medical Data" (Li, Cao, Hu, Yoshikawa; ICDE 2019).

The package is organised as the paper's architecture (Fig. 2):

* :mod:`repro.relational` — each peer's local relational database.
* :mod:`repro.bx` — bidirectional transformations (asymmetric lenses).
* :mod:`repro.crypto`, :mod:`repro.ledger`, :mod:`repro.contracts`,
  :mod:`repro.network` — the simulated blockchain substrate.
* :mod:`repro.core` — the paper's contribution: fine-grained sharing with
  bidirectional update propagation and on-chain permission control.
* :mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.metrics` — the
  comparators and harness used to reproduce every figure and claim.

Quick start::

    from repro import build_paper_scenario

    system = build_paper_scenario()
    trace = system.coordinator.update_shared_entry(
        "researcher", "D23&D32", ("Ibuprofen",),
        {"mechanism_of_action": "MeA1-revised"},
    )
    print(trace.pretty())
"""

from repro._exports import lazy_exports
from repro.config import ConsensusConfig, LedgerConfig, NetworkConfig, SystemConfig
from repro.core import MedicalDataSharingSystem, Peer, SharingAgreement
from repro.errors import ReproError

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "core.scenario": ("build_paper_scenario", "build_scaled_scenario"),
})

__all__ = [
    "ConsensusConfig",
    "LedgerConfig",
    "NetworkConfig",
    "SystemConfig",
    "MedicalDataSharingSystem",
    "Peer",
    "SharingAgreement",
    "build_paper_scenario",
    "build_scaled_scenario",
    "ReproError",
    "__version__",
]
