"""Smart contracts and their runtime.

The paper stores shared-data *metadata* in smart contracts (Fig. 3): which
peers share each table, which attributes each peer may write, when the
metadata last changed, and who has authority to change permissions.  The
contracts also enforce the protocol of Fig. 4 — verify permission, notify
sharing peers, and require every peer to fetch the newest shared data before
further operations are accepted.

* :mod:`repro.contracts.base` — the contract programming model
  (require/revert, events, storage).
* :mod:`repro.contracts.storage` — undo-journaled storage: tracked
  containers and records, rollback on revert without copying.
* :mod:`repro.contracts.runtime` — deterministic execution of deploy/call
  transactions; plugs into the ledger as its transaction executor.
* :mod:`repro.contracts.sharing_contract` — the metadata-collection contract
  of Fig. 3 plus the CRUD request protocol of Fig. 4.
* :mod:`repro.contracts.registry_contract` — discovery of sharing agreements.
* :mod:`repro.contracts.verification` — executable specification checks
  standing in for the Coq verification suggested in §IV.2.
"""

from repro.contracts.base import Contract, ContractEvent
from repro.contracts.runtime import ContractRuntime
from repro.contracts.sharing_contract import (
    MetadataEntry,
    SharedDataContract,
    UpdateRecord,
)
from repro.contracts.registry_contract import SharingRegistryContract
from repro.contracts.verification import ContractSpecChecker, SpecCheckResult

__all__ = [
    "Contract",
    "ContractEvent",
    "ContractRuntime",
    "MetadataEntry",
    "SharedDataContract",
    "UpdateRecord",
    "SharingRegistryContract",
    "ContractSpecChecker",
    "SpecCheckResult",
]
