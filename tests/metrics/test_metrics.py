"""Tests for the paper's measures and the report printers."""

from repro.metrics.paper import (
    ExposureReport,
    StorageComparison,
    ThroughputResult,
    exposure_report,
    measure_throughput,
)
from repro.metrics.reporting import format_series, format_table
from repro.workloads.updates import UpdateStreamGenerator


class TestThroughput:
    def test_measure_throughput_accepts_valid_stream(self, fresh_paper_system):
        generator = UpdateStreamGenerator(fresh_paper_system, seed=2)
        events = generator.stream(4)
        result = measure_throughput(fresh_paper_system, events)
        assert result.updates_attempted == 4
        assert result.updates_accepted == 4
        assert result.updates_rejected == 0
        assert result.simulated_seconds > 0
        assert result.throughput > 0
        assert result.blocks_created >= 8  # request + ack per update

    def test_zero_time_throughput(self):
        result = ThroughputResult(updates_attempted=0, updates_accepted=0,
                                  updates_rejected=0, simulated_seconds=0.0,
                                  blocks_created=0)
        assert result.throughput == 0.0
        assert result.to_dict()["throughput"] == 0.0


class TestExposureReport:
    def test_unnecessary_attributes(self):
        report = exposure_report(
            fine_grained={"Researcher": ("medication_name", "mechanism_of_action")},
            full_record={"Researcher": ("patient_id", "medication_name", "clinical_data",
                                        "dosage", "mechanism_of_action")},
        )
        assert set(report.unnecessary_attributes()["Researcher"]) == {
            "patient_id", "clinical_data", "dosage"}
        counts = report.exposure_counts()["Researcher"]
        assert counts == {"fine_grained": 2, "full_record": 5, "unnecessary": 3}

    def test_roles_missing_from_one_side(self):
        report = ExposureReport(fine_grained={"Patient": ("dosage",)}, full_record={})
        counts = report.exposure_counts()
        assert counts["Patient"]["full_record"] == 0


class TestStorageComparison:
    def test_ratio(self):
        comparison = StorageComparison(record_count=100, metadata_on_chain_bytes=1000,
                                       data_on_chain_bytes=50_000)
        assert comparison.ratio == 50.0
        assert comparison.to_dict()["ratio"] == 50.0

    def test_zero_metadata_gives_infinite_ratio(self):
        comparison = StorageComparison(record_count=1, metadata_on_chain_bytes=0,
                                       data_on_chain_bytes=10)
        assert comparison.ratio == float("inf")


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"), [("alpha", 1.23456), ("b", 2)],
                            title="Results")
        lines = text.splitlines()
        assert lines[0] == "Results"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.235" in text
        assert "alpha" in text

    def test_format_series(self):
        text = format_series({1: 10.0, 12: 2.5}, x_label="interval", y_label="throughput")
        assert "interval" in text
        assert "12" in text and "2.500" in text
