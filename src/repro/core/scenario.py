"""Scenario builders: the exact Fig. 1 data distribution, and scaled variants.

``build_paper_scenario`` constructs the paper's running example verbatim:

* **Patient** (patient 188) keeps D1 with attributes a0..a4;
* **Researcher** keeps D2 with attributes a1, a5, a6 for both medications;
* **Doctor** keeps D3 with attributes a0, a1, a2, a4, a5 for patients 188/189;
* shared table **D13 = D31** (a0, a1, a2, a4 of patient 188) between Patient
  and Doctor, with the Fig. 3 permissions (Doctor writes everything, Patient
  may write clinical data, Doctor holds the authority);
* shared table **D23 = D32** (a1, a5) between Doctor and Researcher, with the
  Fig. 3 permissions (both write medication name, Researcher writes the
  mechanism of action, Researcher holds the authority).

``build_scaled_scenario`` produces the same topology with synthetic data of
configurable size, which the throughput/scaling benchmarks use.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bx.dsl import ViewSpec
from repro.config import SystemConfig
from repro.core.records import doctor_schema, patient_schema, researcher_schema
from repro.core.sharing import SharingAgreement
from repro.core.system import MedicalDataSharingSystem
from repro.relational.predicates import Eq, In

#: The metadata ids used by the paper's two shared tables.
PATIENT_DOCTOR_TABLE = "D13&D31"
DOCTOR_RESEARCHER_TABLE = "D23&D32"

#: The two full records of Fig. 1.
PAPER_RECORDS = (
    {
        "patient_id": 188,
        "medication_name": "Ibuprofen",
        "clinical_data": "CliD1",
        "address": "Sapporo",
        "dosage": "one tablet every 4h",
        "mechanism_of_action": "MeA1",
        "mode_of_action": "MoA1",
    },
    {
        "patient_id": 189,
        "medication_name": "Wellbutrin",
        "clinical_data": "CliD2",
        "address": "Osaka",
        "dosage": "100 mg twice daily",
        "mechanism_of_action": "MeA2",
        "mode_of_action": "MoA2",
    },
)


def _patient_rows(records, patient_ids) -> list:
    columns = ("patient_id", "medication_name", "clinical_data", "address", "dosage")
    return [
        {column: record[column] for column in columns}
        for record in records if record["patient_id"] in patient_ids
    ]


def _doctor_rows(records) -> list:
    columns = ("patient_id", "medication_name", "clinical_data", "dosage",
               "mechanism_of_action")
    return [{column: record[column] for column in columns} for record in records]


def _researcher_rows(records) -> list:
    columns = ("medication_name", "mechanism_of_action", "mode_of_action")
    seen = {}
    for record in records:
        seen[record["medication_name"]] = {column: record[column] for column in columns}
    return list(seen.values())


def patient_doctor_agreement(patient_name: str = "patient", doctor_name: str = "doctor",
                             patient_ids: Tuple[int, ...] = (188,),
                             metadata_id: str = PATIENT_DOCTOR_TABLE) -> SharingAgreement:
    """The D13/D31 agreement with the Fig. 3 write permissions."""
    shared_columns = ("patient_id", "medication_name", "clinical_data", "dosage")
    patient_filter = (
        Eq("patient_id", patient_ids[0]) if len(patient_ids) == 1 else In("patient_id", patient_ids)
    )
    patient_spec = ViewSpec(
        source_table="D1",
        view_name="D13",
        columns=shared_columns,
        view_key=("patient_id",),
    )
    doctor_spec = ViewSpec(
        source_table="D3",
        view_name="D31",
        columns=shared_columns,
        view_key=("patient_id",),
        where=patient_filter,
    )
    return SharingAgreement.build(
        metadata_id=metadata_id,
        peer_a=doctor_name, role_a="Doctor", spec_a=doctor_spec,
        peer_b=patient_name, role_b="Patient", spec_b=patient_spec,
        write_permission={
            "patient_id": ("Doctor",),
            "medication_name": ("Doctor",),
            "dosage": ("Doctor",),
            "clinical_data": ("Patient", "Doctor"),
        },
        authority_role="Doctor",
        initiator=doctor_name,
    )


def doctor_researcher_agreement(doctor_name: str = "doctor", researcher_name: str = "researcher",
                                metadata_id: str = DOCTOR_RESEARCHER_TABLE) -> SharingAgreement:
    """The D23/D32 agreement with the Fig. 3 write permissions."""
    shared_columns = ("medication_name", "mechanism_of_action")
    researcher_spec = ViewSpec(
        source_table="D2",
        view_name="D23",
        columns=shared_columns,
        view_key=("medication_name",),
    )
    doctor_spec = ViewSpec(
        source_table="D3",
        view_name="D32",
        columns=shared_columns,
        view_key=("medication_name",),
    )
    return SharingAgreement.build(
        metadata_id=metadata_id,
        peer_a=researcher_name, role_a="Researcher", spec_a=researcher_spec,
        peer_b=doctor_name, role_b="Doctor", spec_b=doctor_spec,
        write_permission={
            "medication_name": ("Doctor", "Researcher"),
            "mechanism_of_action": ("Researcher",),
        },
        authority_role="Researcher",
        initiator=researcher_name,
    )


def build_paper_scenario(config: Optional[SystemConfig] = None) -> MedicalDataSharingSystem:
    """Build the complete Fig. 1 scenario, contracts deployed and sharing live."""
    return build_scaled_scenario(records=PAPER_RECORDS, config=config)


#: Metadata ids of the extended (CARE/STUDY) scenario below.
CARE_TABLE = "CARE:D13&D31"
STUDY_TABLE = "STUDY:D3S&DS3"


def build_extended_scenario(config: Optional[SystemConfig] = None,
                            records=PAPER_RECORDS) -> MedicalDataSharingSystem:
    """A richer doctor/patient/researcher scenario used by the cascade and
    create/delete experiments.

    The paper's exact Fig. 1 views only overlap on the key of the functional
    D32 view, so the Fig. 5 steps 6-11 cascade (the doctor re-sharing an
    absorbed change with the patient) cannot be triggered by a plain value
    update there.  This variant keeps the same three stakeholders and local
    schemas but shares:

    * ``CARE``  — doctor ↔ patient: (patient_id, medication_name,
      clinical_data, dosage), keyed by patient id, no row filter;
    * ``STUDY`` — doctor ↔ researcher: (patient_id, dosage,
      mechanism_of_action), keyed by patient id (the researcher keeps a
      per-patient study table ``DS``).

    ``dosage`` overlaps between the two shared tables, so a researcher-side
    dosage update flows STUDY → D3 → CARE → patient — exactly the Fig. 5
    narrative — and entry-level create/delete translate cleanly through every
    lens involved.
    """
    from repro.core.records import schema_for_attributes

    records = tuple(records)
    system = MedicalDataSharingSystem(config or SystemConfig.private_chain())
    doctor = system.add_peer("doctor", "Doctor")
    patient = system.add_peer("patient", "Patient")
    researcher = system.add_peer("researcher", "Researcher")

    doctor.database.create_table("D3", doctor_schema(), _doctor_rows(records))
    patient.database.create_table(
        "D1", patient_schema(),
        _patient_rows(records, {record["patient_id"] for record in records}))
    study_schema = schema_for_attributes(
        ["patient_id", "dosage", "mechanism_of_action"], primary_key=["patient_id"])
    researcher.database.create_table(
        "DS", study_schema,
        [{c: record[c] for c in ("patient_id", "dosage", "mechanism_of_action")}
         for record in records])

    system.deploy_contracts("doctor")

    care_columns = ("patient_id", "medication_name", "clinical_data", "dosage")
    system.establish_sharing(SharingAgreement.build(
        metadata_id=CARE_TABLE,
        peer_a="doctor", role_a="Doctor",
        spec_a=ViewSpec(source_table="D3", view_name="D31", columns=care_columns,
                        view_key=("patient_id",)),
        peer_b="patient", role_b="Patient",
        spec_b=ViewSpec(source_table="D1", view_name="D13", columns=care_columns,
                        view_key=("patient_id",)),
        write_permission={
            "patient_id": ("Doctor",),
            "medication_name": ("Doctor",),
            "dosage": ("Doctor",),
            "clinical_data": ("Patient", "Doctor"),
        },
        authority_role="Doctor",
        initiator="doctor",
    ))

    study_columns = ("patient_id", "dosage", "mechanism_of_action")
    system.establish_sharing(SharingAgreement.build(
        metadata_id=STUDY_TABLE,
        peer_a="researcher", role_a="Researcher",
        spec_a=ViewSpec(source_table="DS", view_name="DS3", columns=study_columns,
                        view_key=("patient_id",)),
        peer_b="doctor", role_b="Doctor",
        spec_b=ViewSpec(source_table="D3", view_name="D3S", columns=study_columns,
                        view_key=("patient_id",)),
        write_permission={
            "patient_id": ("Doctor",),
            "dosage": ("Doctor", "Researcher"),
            "mechanism_of_action": ("Doctor", "Researcher"),
        },
        authority_role="Researcher",
        initiator="researcher",
    ))
    return system


def build_scaled_scenario(records=PAPER_RECORDS, patient_ids: Optional[Tuple[int, ...]] = None,
                          config: Optional[SystemConfig] = None) -> MedicalDataSharingSystem:
    """Build the Fig. 1 topology over an arbitrary set of full records.

    Parameters
    ----------
    records:
        An iterable of full-record dictionaries (a0..a6 columns).  Defaults to
        the two records of the paper.
    patient_ids:
        Which patient ids belong to the "patient" peer (and hence appear in
        D1 and the D13/D31 shared table).  Defaults to the first record's id.
    config:
        Optional :class:`~repro.config.SystemConfig` (consensus, latencies).
    """
    records = tuple(records)
    if not records:
        raise ValueError("a scenario needs at least one full record")
    if patient_ids is None:
        patient_ids = (records[0]["patient_id"],)

    system = MedicalDataSharingSystem(config or SystemConfig.private_chain())
    doctor = system.add_peer("doctor", "Doctor")
    patient = system.add_peer("patient", "Patient")
    researcher = system.add_peer("researcher", "Researcher")

    patient.database.create_table("D1", patient_schema(), _patient_rows(records, set(patient_ids)))
    doctor.database.create_table("D3", doctor_schema(), _doctor_rows(records))
    researcher.database.create_table("D2", researcher_schema(), _researcher_rows(records))

    system.deploy_contracts("doctor")
    system.establish_sharing(patient_doctor_agreement(patient_ids=tuple(patient_ids)))
    system.establish_sharing(doctor_researcher_agreement())
    return system
