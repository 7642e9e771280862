"""A research study over shared fine-grained data, with the Fig. 5 cascade.

Run with::

    python examples/research_study.py

The example uses the extended CARE/STUDY scenario (see
``repro.core.scenario.build_extended_scenario``): the researcher runs a
dosage-adjustment study, updating dosages through its shared study table.
Each accepted update is reflected into the doctor's full records and — because
the dosage also appears in the doctor-patient shared table — re-shared with
the patient (steps 6-11 of Fig. 5).  The example then contrasts what the
researcher can see under fine-grained sharing with what a MedRec-style
full-record grant would have exposed.
"""

from __future__ import annotations

from repro.baselines.full_record import FullRecordSharingBaseline
from repro.config import SystemConfig
from repro.core.scenario import CARE_TABLE, STUDY_TABLE, build_extended_scenario
from repro.metrics.paper import exposure_report
from repro.metrics.reporting import format_table


def main() -> None:
    print("Building the extended CARE/STUDY scenario...\n")
    system = build_extended_scenario(SystemConfig.private_chain(block_interval=2.0))

    print(system.peer("researcher").shared_table(STUDY_TABLE).pretty(), "\n")

    print("The researcher adjusts the dosage of patient 188 (study protocol)...\n")
    trace = system.coordinator.update_shared_entry(
        "researcher", STUDY_TABLE, (188,), {"dosage": "two tablets every 12h"})
    print(trace.pretty(), "\n")

    print("The change cascaded to the patient through the CARE shared table:")
    print(system.peer("patient").shared_table(CARE_TABLE).pretty(), "\n")
    print(system.peer("patient").local_table("D1").pretty(), "\n")

    print("What does the researcher actually see?  Fine-grained views vs a "
          "full-record grant:\n")
    baseline = FullRecordSharingBaseline()
    baseline.register_provider_table("doctor", system.peer("doctor").local_table("D3"))
    baseline.grant_access("doctor", "Researcher", "D3")
    report = exposure_report(
        fine_grained={"Researcher": system.agreement(STUDY_TABLE).shared_columns},
        full_record=baseline.exposure_matrix(),
    )
    counts = report.exposure_counts()["Researcher"]
    print(format_table(
        ("design", "attributes visible to the researcher"),
        [("fine-grained STUDY view", counts["fine_grained"]),
         ("MedRec-style full record", counts["full_record"]),
         ("exposed without need", counts["unnecessary"])],
        title="Exposure comparison"), "\n")
    print("Unnecessary attributes a full-record grant would leak:",
          ", ".join(report.unnecessary_attributes()["Researcher"]), "\n")

    print(system.audit_trail().pretty())


if __name__ == "__main__":
    main()
