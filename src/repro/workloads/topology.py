"""Larger peer topologies.

The paper's scenario has three peers; the motivation section talks about
hospitals, many patients and researchers.  :func:`build_topology_system`
builds a hub topology with one (or more) doctors, N patients and M
researchers, each with realistic local tables and pairwise sharing
agreements, so benchmarks can scale the number of agreements and concurrent
updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bx.dsl import ViewSpec
from repro.config import SystemConfig
from repro.core.records import (
    doctor_schema,
    patient_schema,
    researcher_schema,
    schema_for_attributes,
)
from repro.core.sharing import SharingAgreement
from repro.core.system import MedicalDataSharingSystem
from repro.relational.predicates import Eq
from repro.workloads.generator import MedicalRecordGenerator


@dataclass(frozen=True)
class TopologySpec:
    """Shape of a generated sharing network.

    ``first_patient_id`` sets the base of the sequential patient-id range;
    benchmarks that exercise consensus sharding pick a base whose metadata
    ids spread evenly over the shard hash.
    """

    patients: int = 5
    researchers: int = 1
    distinct_medications: int = 8
    seed: int = 42
    first_patient_id: int = 188

    def __post_init__(self) -> None:
        if self.patients < 1:
            raise ValueError("a topology needs at least one patient")
        if self.researchers < 0:
            raise ValueError("researchers must be non-negative")
        if self.distinct_medications < 1:
            raise ValueError("distinct_medications must be at least 1")
        if self.first_patient_id < 0:
            raise ValueError("first_patient_id must be non-negative")


def _patient_agreement(patient_name: str, patient_id: int, metadata_id: str) -> SharingAgreement:
    shared_columns = ("patient_id", "medication_name", "clinical_data", "dosage")
    patient_spec = ViewSpec(source_table="D1", view_name=f"D13_{patient_id}",
                            columns=shared_columns, view_key=("patient_id",))
    doctor_spec = ViewSpec(source_table="D3", view_name=f"D31_{patient_id}",
                           columns=shared_columns, view_key=("patient_id",),
                           where=Eq("patient_id", patient_id))
    return SharingAgreement.build(
        metadata_id=metadata_id,
        peer_a="doctor", role_a="Doctor", spec_a=doctor_spec,
        peer_b=patient_name, role_b="Patient", spec_b=patient_spec,
        write_permission={
            "patient_id": ("Doctor",),
            "medication_name": ("Doctor",),
            "dosage": ("Doctor",),
            "clinical_data": ("Patient", "Doctor"),
        },
        authority_role="Doctor",
        initiator="doctor",
    )


def _researcher_agreement(researcher_name: str, metadata_id: str) -> SharingAgreement:
    shared_columns = ("medication_name", "mechanism_of_action")
    researcher_spec = ViewSpec(source_table="D2", view_name=f"D23_{researcher_name}",
                               columns=shared_columns, view_key=("medication_name",))
    doctor_spec = ViewSpec(source_table="D3", view_name=f"D32_{researcher_name}",
                           columns=shared_columns, view_key=("medication_name",))
    return SharingAgreement.build(
        metadata_id=metadata_id,
        peer_a=researcher_name, role_a="Researcher", spec_a=researcher_spec,
        peer_b="doctor", role_b="Doctor", spec_b=doctor_spec,
        write_permission={
            "medication_name": ("Doctor", "Researcher"),
            "mechanism_of_action": ("Researcher",),
        },
        authority_role="Researcher",
        initiator=researcher_name,
    )


#: Reference table the join-backed doctor views enrich from.
JOIN_REFERENCE_TABLE = "medications"
#: Metadata id of the hospital's whole-table agreement in the join topology
#: (the fan-out driver: one batched hospital update touches many patients).
HOSPITAL_TABLE_ID = "DH&D3H"


def guideline_for(medication_name: str) -> str:
    """The (deterministic) prescribing-guideline tag of a medication — the
    enrichment value the join-backed views pull from the reference table."""
    return f"GL-{medication_name}"


def _join_patient_agreement(patient_name: str, patient_id: int,
                            metadata_id: str) -> SharingAgreement:
    """Doctor ↔ patient agreement whose doctor side is *join-backed*:
    σ_{patient_id}(D3) ⋈ medications, enriched with the guideline column.

    The patient side carries the same shared columns as plain ``D1``
    columns, so incoming cascade diffs (which may touch any shared column)
    reflect through an ordinary keyed projection."""
    shared_columns = ("patient_id", "medication_name", "clinical_data",
                      "dosage", "mechanism_of_action", "guideline")
    patient_spec = ViewSpec(source_table="D1", view_name=f"D13_{patient_id}",
                            columns=shared_columns, view_key=("patient_id",))
    doctor_spec = ViewSpec(source_table="D3", view_name=f"D31_{patient_id}",
                           columns=shared_columns, view_key=("patient_id",),
                           where=Eq("patient_id", patient_id),
                           join_table=JOIN_REFERENCE_TABLE,
                           join_on=("medication_name",),
                           join_columns=("guideline",))
    return SharingAgreement.build(
        metadata_id=metadata_id,
        peer_a="doctor", role_a="Doctor", spec_a=doctor_spec,
        peer_b=patient_name, role_b="Patient", spec_b=patient_spec,
        write_permission={
            "patient_id": ("Doctor",),
            "medication_name": ("Doctor",),
            "dosage": ("Doctor",),
            "clinical_data": ("Patient", "Doctor"),
            "mechanism_of_action": ("Doctor",),
            "guideline": ("Doctor",),
        },
        authority_role="Doctor",
        initiator="doctor",
    )


def _hospital_agreement(metadata_id: str = HOSPITAL_TABLE_ID) -> SharingAgreement:
    """Hospital ↔ doctor agreement over the *whole* D3, keyed by patient id.

    A batched hospital update (one edit per affected patient) lands as one
    multi-row diff on the doctor's base table and fans out as one cascade
    with one leg per affected per-patient view — the cascade-heavy workload
    the parallel-cascade benchmark drives."""
    shared_columns = ("patient_id", "medication_name", "mechanism_of_action")
    hospital_spec = ViewSpec(source_table="DH", view_name="DH3",
                             columns=shared_columns, view_key=("patient_id",))
    doctor_spec = ViewSpec(source_table="D3", view_name="D3H",
                           columns=shared_columns, view_key=("patient_id",))
    return SharingAgreement.build(
        metadata_id=metadata_id,
        peer_a="hospital", role_a="Hospital", spec_a=hospital_spec,
        peer_b="doctor", role_b="Doctor", spec_b=doctor_spec,
        write_permission={
            "patient_id": ("Doctor",),
            "medication_name": ("Doctor",),
            "mechanism_of_action": ("Hospital", "Doctor"),
        },
        authority_role="Hospital",
        initiator="hospital",
    )


def build_join_topology_system(spec: TopologySpec = TopologySpec(),
                               config: Optional[SystemConfig] = None,
                               ) -> MedicalDataSharingSystem:
    """A topology whose doctor-side per-patient views are join-backed.

    Peers and tables:

    * **doctor** — ``D3`` plus the ``medications`` reference table
      (primary key ``medication_name``, enrichment column ``guideline``);
    * **hospital** — ``DH``, a whole-table replica of the shared D3 columns,
      shared with the doctor keyed by patient id (:data:`HOSPITAL_TABLE_ID`);
    * ``spec.patients`` **patients** — an extended plain ``D1`` that carries
      ``mechanism_of_action`` and ``guideline`` as ordinary columns, shared
      through the join-backed per-patient agreements.

    The doctor and the hospital are validators; the patients are light peers
    attached to the doctor's node, as in :func:`build_topology_system`.

    A hospital-side batched ``mechanism_of_action`` update per medication
    reaches every patient on that medication through one cascade — each leg
    translated by the keyed-join delta rules — which is exactly the fan-out
    shape ``benchmarks/bench_parallel_cascade.py`` measures.
    ``spec.researchers`` is ignored: the functional D23/D32 view is not
    delta-translatable and would hide the join legs' zero-fallback signal.
    """
    generator = MedicalRecordGenerator(seed=spec.seed,
                                       first_patient_id=spec.first_patient_id)
    records = generator.records(spec.patients,
                                distinct_medications=spec.distinct_medications)

    system = MedicalDataSharingSystem(config or SystemConfig.private_chain())
    system.add_peer("doctor", "Doctor")
    system.add_peer("hospital", "Hospital")

    doctor_columns = ("patient_id", "medication_name", "clinical_data",
                      "dosage", "mechanism_of_action")
    system.peer("doctor").database.create_table(
        "D3", doctor_schema(),
        [{c: record[c] for c in doctor_columns} for record in records])
    medications = sorted({record["medication_name"] for record in records})
    system.peer("doctor").database.create_table(
        JOIN_REFERENCE_TABLE,
        schema_for_attributes(["medication_name", "guideline"],
                              primary_key=["medication_name"]),
        [{"medication_name": m, "guideline": guideline_for(m)}
         for m in medications])

    hospital_columns = ("patient_id", "medication_name", "mechanism_of_action")
    system.peer("hospital").database.create_table(
        "DH",
        schema_for_attributes(list(hospital_columns), primary_key=["patient_id"]),
        [{c: record[c] for c in hospital_columns} for record in records])

    patient_schema_ext = schema_for_attributes(
        ["patient_id", "medication_name", "clinical_data", "address",
         "dosage", "mechanism_of_action", "guideline"],
        primary_key=["patient_id"])
    patient_columns = tuple(patient_schema_ext.column_names)
    patient_names = []
    for record in records:
        patient_id = record["patient_id"]
        name = f"patient-{patient_id}"
        patient_names.append((patient_id, name))
        system.add_peer(name, "Patient", light=True)
        row = {c: record.get(c) for c in patient_columns}
        row["guideline"] = guideline_for(record["medication_name"])
        system.peer(name).database.create_table("D1", patient_schema_ext, [row])

    system.deploy_contracts("doctor")
    system.establish_sharing(_hospital_agreement())
    for patient_id, name in patient_names:
        system.establish_sharing(
            _join_patient_agreement(name, patient_id,
                                    metadata_id=f"D13&D31:{patient_id}"))
    return system


def patients_by_medication(system: MedicalDataSharingSystem) -> Dict[str, List[int]]:
    """Patient ids grouped by their current medication (from the doctor's
    ``D3``) — the fan-out sets a hospital-side per-medication update hits."""
    groups: Dict[str, List[int]] = {}
    for row in system.peer("doctor").database.table("D3"):
        groups.setdefault(row["medication_name"], []).append(row["patient_id"])
    return {medication: sorted(ids) for medication, ids in sorted(groups.items())}


def build_topology_system(spec: TopologySpec = TopologySpec(),
                          config: Optional[SystemConfig] = None) -> MedicalDataSharingSystem:
    """Build a doctor-centred topology with ``spec.patients`` patients and
    ``spec.researchers`` researchers, sharing established and contracts live.

    The doctor and the researchers are validators; the patients are light
    peers (a header chain and one inclusion proof per own operation)
    attached to the doctor's node.  So a write costs one contract execution
    per validator, not one per peer.
    """
    generator = MedicalRecordGenerator(seed=spec.seed,
                                       first_patient_id=spec.first_patient_id)
    # One full record per patient peer (patient_id keys D1/D3), with the
    # medication variety bounded so several patients share each medication —
    # that is what makes the D23/D32 functional view non-trivial.
    full_records = generator.records(spec.patients,
                                     distinct_medications=spec.distinct_medications)
    records_by_patient: Dict[int, List[dict]] = {}
    all_records: List[dict] = []
    patient_ids: List[int] = []
    for record in full_records:
        patient_id = record["patient_id"]
        patient_ids.append(patient_id)
        records_by_patient[patient_id] = [record]
        all_records.append(record)

    system = MedicalDataSharingSystem(config or SystemConfig.private_chain())
    system.add_peer("doctor", "Doctor")

    doctor_columns = ("patient_id", "medication_name", "clinical_data", "dosage",
                      "mechanism_of_action")
    doctor_rows = [{c: record[c] for c in doctor_columns} for record in all_records]
    system.peer("doctor").database.create_table("D3", doctor_schema(), doctor_rows)

    patient_columns = ("patient_id", "medication_name", "clinical_data", "address", "dosage")
    patient_names = []
    for patient_id in patient_ids:
        name = f"patient-{patient_id}"
        patient_names.append(name)
        system.add_peer(name, "Patient", light=True)
        rows = [{c: record[c] for c in patient_columns}
                for record in records_by_patient[patient_id]]
        system.peer(name).database.create_table("D1", patient_schema(), rows)

    researcher_columns = ("medication_name", "mechanism_of_action", "mode_of_action")
    researcher_names = []
    seen_medications: Dict[str, dict] = {}
    for record in all_records:
        seen_medications[record["medication_name"]] = {
            c: record[c] for c in researcher_columns
        }
    for index in range(spec.researchers):
        name = f"researcher-{index + 1}"
        researcher_names.append(name)
        system.add_peer(name, "Researcher")
        system.peer(name).database.create_table("D2", researcher_schema(),
                                                 list(seen_medications.values()))

    system.deploy_contracts("doctor")
    for patient_id, name in zip(patient_ids, patient_names):
        system.establish_sharing(
            _patient_agreement(name, patient_id, metadata_id=f"D13&D31:{patient_id}")
        )
    for name in researcher_names:
        system.establish_sharing(
            _researcher_agreement(name, metadata_id=f"D23&D32:{name}")
        )
    return system
