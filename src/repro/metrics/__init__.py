"""The paper's measures and the benchmark harness's table printers."""

from repro.metrics.paper import (
    ExposureReport,
    StorageComparison,
    ThroughputResult,
    exposure_report,
    measure_throughput,
)
from repro.metrics.reporting import format_table, format_series

__all__ = [
    "ThroughputResult",
    "ExposureReport",
    "StorageComparison",
    "exposure_report",
    "measure_throughput",
    "format_table",
    "format_series",
]
