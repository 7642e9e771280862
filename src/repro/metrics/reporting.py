"""Plain-text rendering of benchmark results.

The benchmark harness prints the same rows/series the paper's figures would
carry; these helpers keep that output aligned and readable both in pytest
output and in the ``benchmarks/results/*.txt`` copies the harness writes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width text table."""
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(series: Mapping[object, object], x_label: str = "x", y_label: str = "y",
                  title: str = "") -> str:
    """Render an (x → y) series as a two-column table (one figure data series)."""
    rows = [(x, y) for x, y in series.items()]
    return format_table((x_label, y_label), rows, title=title)


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
