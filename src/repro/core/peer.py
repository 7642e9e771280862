"""A sharing peer: identity, role, local database and BX programs.

A peer is one stakeholder of the sharing network — a patient, a doctor, a
researcher, a hospital, ...  Each peer owns:

* a deterministic key pair and the derived blockchain account address;
* a local :class:`~repro.relational.database.Database` holding its full data
  *and* the shared data pieces (the paper: "each user has a full database and
  many data pieces shared with other users");
* a :class:`~repro.bx.registry.BXRegistry` of the bidirectional programs that
  keep each shared piece consistent with its local base table;
* the sharing agreements it participates in.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bx.dsl import ViewSpec, lens_from_spec
from repro.bx.registry import BXProgram, BXRegistry
from repro.crypto.keys import KeyPair, generate_keypair
from repro.errors import AgreementError, UnknownTableError
from repro.core.sharing import SharingAgreement
from repro.relational.database import Database
from repro.relational.table import Table


def _seed_from_name(name: str) -> int:
    """A stable per-peer key seed derived from the peer's name."""
    return int.from_bytes(name.encode("utf-8")[:8].ljust(8, b"\0"), "big") or 1


class Peer:
    """One stakeholder in the medical-data sharing network."""

    def __init__(self, name: str, role: str, key_seed: Optional[int] = None,
                 database: Optional[Database] = None):
        self.name = name
        self.role = role
        self.keypair: KeyPair = generate_keypair(seed=key_seed or _seed_from_name(name))
        # A pre-built database (e.g. a durable one recovered from disk by the
        # system) may be injected; the default stays purely in-memory.
        self.database = (database if database is not None
                         else Database(name=f"{name}_db"))
        self.bx = BXRegistry()
        self.agreements: Dict[str, SharingAgreement] = {}
        #: metadata_id → BX program name for this peer's side of the agreement.
        self._bx_name_by_agreement: Dict[str, str] = {}

    # ---------------------------------------------------------------- identity

    @property
    def address(self) -> str:
        """The blockchain account address of this peer."""
        return self.keypair.address

    def __repr__(self) -> str:
        return f"Peer({self.name!r}, role={self.role!r})"

    # ------------------------------------------------------------- local tables

    def local_table(self, name: str) -> Table:
        return self.database.table(name)

    def shared_table(self, metadata_id: str) -> Table:
        """The stored copy of the shared table for one agreement."""
        agreement = self.agreement(metadata_id)
        return self.database.table(agreement.view_name_for(self.name))

    # ----------------------------------------------------------------- sharing

    def agreement(self, metadata_id: str) -> SharingAgreement:
        if metadata_id not in self.agreements:
            raise AgreementError(f"peer {self.name!r} is not part of agreement {metadata_id!r}")
        return self.agreements[metadata_id]

    @property
    def agreement_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self.agreements))

    def join_agreement(self, agreement: SharingAgreement) -> BXProgram:
        """Adopt a sharing agreement: register its BX program and materialise
        the shared table from the local base table.

        The BX program is named ``BX-<view name>`` (e.g. ``BX-D31``), matching
        the paper's convention of one named program per source/view pair.
        """
        definition = agreement.definition_for(self.name)
        spec: ViewSpec = definition.view_spec
        if not self.database.has_table(spec.source_table):
            raise AgreementError(
                f"peer {self.name!r} has no local table {spec.source_table!r} "
                f"required by agreement {agreement.metadata_id!r}"
            )
        if spec.join_table is not None and not self.database.has_table(spec.join_table):
            raise AgreementError(
                f"peer {self.name!r} has no local reference table {spec.join_table!r} "
                f"required by agreement {agreement.metadata_id!r}"
            )
        bx_name = f"BX-{spec.view_name}"
        # Join specs resolve their reference table against this peer's live
        # database at every get/put, so reference edits are always current.
        program = self.bx.register_spec(bx_name, spec,
                                        resolve_table=self.database.table)
        self.agreements[agreement.metadata_id] = agreement
        self._bx_name_by_agreement[agreement.metadata_id] = bx_name
        self._materialize_shared_table(program)
        return program

    def _materialize_shared_table(self, program: BXProgram) -> None:
        source = self.database.table(program.source_table)
        view = program.get(source)
        if self.database.has_table(program.view_name):
            self.database.replace_table(program.view_name,
                                        (row.to_dict() for row in view))
        else:
            self.database.create_table(program.view_name, view.schema,
                                       (row.to_dict() for row in view))

    def bx_program(self, metadata_id: str) -> BXProgram:
        """The BX program maintaining this peer's side of one agreement."""
        if metadata_id not in self._bx_name_by_agreement:
            raise AgreementError(
                f"peer {self.name!r} has no BX program for agreement {metadata_id!r}"
            )
        return self.bx.get(self._bx_name_by_agreement[metadata_id])

    def agreements_sharing_source(self, source_table: str) -> Tuple[str, ...]:
        """Metadata ids of agreements whose shared view derives from ``source_table``.

        Step 6 of Fig. 5 asks whether other shared pieces of the same source
        overlap with a change; this is the lookup that question starts from.
        """
        result = []
        for metadata_id in sorted(self.agreements):
            program = self.bx_program(metadata_id)
            if program.source_table == source_table:
                result.append(metadata_id)
        return tuple(result)

    # ------------------------------------------------------------------ summary

    def exposure_summary(self) -> Dict[str, Tuple[str, ...]]:
        """Which shared columns this peer exposes per agreement (for the
        §V exposure benchmark)."""
        return {
            metadata_id: agreement.shared_columns
            for metadata_id, agreement in sorted(self.agreements.items())
        }

    def storage_bytes(self) -> int:
        return self.database.storage_bytes()
