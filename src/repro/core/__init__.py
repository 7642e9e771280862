"""The paper's contribution: fine-grained sharing with bidirectional updates.

This subpackage assembles the substrates (relational engine, BX lenses,
ledger, contracts, network) into the architecture of Fig. 2 and implements
the protocols of Fig. 4 (CRUD on shared data) and Fig. 5 (the 11-step update
propagation workflow):

* :mod:`repro.core.records` — the paper's medical-record schema (a0..a6) and
  the local schemas of Patient (D1), Researcher (D2) and Doctor (D3).
* :mod:`repro.core.sharing` — sharing agreements: which two peers share which
  view, per-attribute write permission, authority to change permission.
* :mod:`repro.core.peer` — a sharing peer: identity, role, local database,
  BX registry and stored shared tables.
* :mod:`repro.core.manager` — the database manager that runs BX programs.
* :mod:`repro.core.server_app` — the per-peer mediator between client side,
  database manager, blockchain node and data channels.
* :mod:`repro.core.workflow` — the update/CRUD coordination across peers.
* :mod:`repro.core.audit` — the on-chain audit trail of shared-data updates.
* :mod:`repro.core.system` — top-level assembly (build peers, deploy
  contracts, establish agreements, run updates).
* :mod:`repro.core.scenario` — the exact Fig. 1 scenario and scaled variants.
"""

from repro._exports import lazy_exports
from repro.core.records import (
    ATTRIBUTE_LABELS,
    FULL_RECORD_COLUMNS,
    full_record_schema,
    doctor_schema,
    patient_schema,
    researcher_schema,
)
from repro.core.sharing import SharingAgreement, PeerViewDefinition
from repro.core.peer import Peer
from repro.core.manager import DatabaseManager
from repro.core.server_app import ServerApp, Notification
from repro.core.trace import WorkflowStep, WorkflowTrace
from repro.core.workflow import UpdateCoordinator
from repro.core.system import MedicalDataSharingSystem

__getattr__, __dir__ = lazy_exports(__name__, {
    "audit": ("AuditTrail", "AuditRecord"),
    "scenario": ("build_extended_scenario", "build_paper_scenario",
                 "build_scaled_scenario"),
})

__all__ = [
    "ATTRIBUTE_LABELS",
    "FULL_RECORD_COLUMNS",
    "full_record_schema",
    "doctor_schema",
    "patient_schema",
    "researcher_schema",
    "SharingAgreement",
    "PeerViewDefinition",
    "Peer",
    "DatabaseManager",
    "ServerApp",
    "Notification",
    "UpdateCoordinator",
    "WorkflowTrace",
    "WorkflowStep",
    "AuditTrail",
    "AuditRecord",
    "MedicalDataSharingSystem",
    "build_extended_scenario",
    "build_paper_scenario",
    "build_scaled_scenario",
]
