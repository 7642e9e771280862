"""E7 — §V exposure claim: fine-grained views vs MedRec-style full records.

The introduction and §V argue that sharing whole records exposes parties to
"additional but unnecessary information" (and proprietary data such as
treatment details), whereas fine-grained views expose only what each peer
needs.  This experiment counts, per role, the attributes visible under the
two designs and the attributes exposed without need, and audits third-party
leakage over the data channels.
"""

from __future__ import annotations

import pytest

from repro.baselines.full_record import FullRecordSharingBaseline
from repro.core.records import FULL_RECORD_COLUMNS
from repro.core.scenario import (
    DOCTOR_RESEARCHER_TABLE,
    PATIENT_DOCTOR_TABLE,
    build_paper_scenario,
)
from repro.metrics.paper import exposure_report
from repro.metrics.reporting import format_table


def _fine_grained_exposure(system):
    """Attributes each consumer role receives through the paper's shared views."""
    return {
        "Patient": system.agreement(PATIENT_DOCTOR_TABLE).shared_columns,
        "Researcher": system.agreement(DOCTOR_RESEARCHER_TABLE).shared_columns,
    }


def _full_record_exposure(system):
    """Attributes each role would receive if the doctor shared D3 wholesale."""
    baseline = FullRecordSharingBaseline()
    baseline.register_provider_table("doctor", system.peer("doctor").local_table("D3"))
    baseline.grant_access("doctor", "Patient", "D3")
    baseline.grant_access("doctor", "Researcher", "D3")
    return baseline.exposure_matrix(), baseline


def test_sec5_exposure_counts(benchmark, emit):
    system = build_paper_scenario()
    fine = _fine_grained_exposure(system)
    full, _baseline = benchmark(lambda: _full_record_exposure(system))
    report = exposure_report(fine, full)
    counts = report.exposure_counts()
    rows = [
        (role,
         counts[role]["fine_grained"],
         counts[role]["full_record"],
         counts[role]["unnecessary"],
         ", ".join(report.unnecessary_attributes()[role]))
        for role in sorted(counts)
    ]
    emit("E7_sec5_exposure", format_table(
        ("role", "attrs (fine-grained)", "attrs (full record)", "unnecessary",
         "unnecessary attributes"),
        rows, title="§V: attribute exposure per role — fine-grained views vs MedRec-style"))
    # Fine-grained sharing must expose strictly fewer attributes to each role.
    for role in counts:
        assert counts[role]["fine_grained"] < counts[role]["full_record"]
        assert counts[role]["unnecessary"] >= 1


def test_sec5_researcher_never_sees_identifiers(benchmark, emit):
    """Under fine-grained views the researcher sees no patient identifiers or
    addresses; under full-record sharing it would."""
    system = benchmark.pedantic(build_paper_scenario, rounds=1, iterations=1)
    fine = _fine_grained_exposure(system)
    assert "patient_id" not in fine["Researcher"]
    assert "address" not in fine["Researcher"]
    full, _ = _full_record_exposure(system)
    assert "patient_id" in full["Researcher"]
    emit("E7_sec5_identifier_exposure", format_table(
        ("design", "researcher sees patient_id", "researcher sees clinical_data"),
        [("fine-grained views (ours)", "patient_id" in fine["Researcher"],
          "clinical_data" in fine["Researcher"]),
         ("full record (MedRec-style)", "patient_id" in full["Researcher"],
          "clinical_data" in full["Researcher"])],
        title="§V: identifier exposure to the researcher"))


def test_sec5_third_party_leakage_over_channels(benchmark, emit):
    """Updates on data shared by two peers are never disclosed to the third
    party: audit every channel transfer after a full day of updates."""
    system = benchmark.pedantic(build_paper_scenario, rounds=1, iterations=1)
    system.coordinator.update_shared_entry(
        "researcher", DOCTOR_RESEARCHER_TABLE, ("Ibuprofen",),
        {"mechanism_of_action": "MeA1-revised"})
    system.coordinator.update_shared_entry(
        "doctor", PATIENT_DOCTOR_TABLE, (188,), {"dosage": "two tablets every 6h"})
    exposure = system.simulator.channels.exposure_report()
    rows = [(peer, ", ".join(tables)) for peer, tables in sorted(exposure.items())]
    emit("E7_sec5_channel_exposure", format_table(
        ("peer", "shared tables received over channels"), rows,
        title="§V: third-party isolation of shared-data transfers"))
    # The patient never receives researcher-doctor data and vice versa.
    assert all(not table.startswith("D2") and not table.startswith("D32")
               for table in exposure.get("patient", ()))
    assert all(not table.startswith("D1") and not table.startswith("D31")
               for table in exposure.get("researcher", ()))


def test_sec5_full_attribute_matrix(benchmark, emit):
    """The full role × attribute visibility matrix under both designs."""
    system = benchmark.pedantic(build_paper_scenario, rounds=1, iterations=1)
    fine = _fine_grained_exposure(system)
    full, _ = _full_record_exposure(system)
    rows = []
    for attribute in FULL_RECORD_COLUMNS:
        rows.append((
            attribute,
            "yes" if attribute in fine.get("Patient", ()) else "",
            "yes" if attribute in fine.get("Researcher", ()) else "",
            "yes" if attribute in full.get("Patient", ()) else "",
            "yes" if attribute in full.get("Researcher", ()) else "",
        ))
    emit("E7_sec5_attribute_matrix", format_table(
        ("attribute", "patient (ours)", "researcher (ours)",
         "patient (full)", "researcher (full)"),
        rows, title="§V: attribute visibility matrix"))
    assert any(row[3] == "yes" and row[1] == "" for row in rows)
