"""Plain-text tables and ASCII charts for the benchmark harness.

Every benchmark prints the same rows/series the paper reports; these
helpers keep the output consistent and legible without a plotting
dependency.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def format_value(value) -> str:
    """Human-ish formatting: floats get sensible precision."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.0f}"
        if magnitude >= 10:
            return f"{value:.1f}"
        if magnitude >= 0.01:
            return f"{value:.3f}"
        return f"{value:.3g}"
    return str(value)


def render_table(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    headers = list(columns) if columns else list(rows[0].keys())
    cells = [
        [format_value(row.get(column, "")) for column in headers]
        for row in rows
    ]
    widths = [
        max(len(header), *(len(row[i]) for row in cells))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    times: Sequence[float],
    values: Sequence[float],
    label: str = "",
    width: int = 60,
    height: int = 12,
) -> str:
    """A crude ASCII line chart (for the Fig. 9/10 time series)."""
    if len(times) != len(values):
        raise ValueError("times and values must have equal lengths")
    if not times:
        return f"{label}: (no data)"
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return f"{label}: (no finite data)"
    v_min, v_max = min(finite), max(finite)
    if v_max == v_min:
        v_max = v_min + 1.0
    t_min, t_max = times[0], times[-1]
    span = t_max - t_min or 1.0
    grid = [[" "] * width for _ in range(height)]
    for time, value in zip(times, values):
        if math.isnan(value):
            continue
        x = min(width - 1, int((time - t_min) / span * (width - 1)))
        y = min(
            height - 1,
            int((value - v_min) / (v_max - v_min) * (height - 1)),
        )
        grid[height - 1 - y][x] = "*"
    lines = [f"{label}  [{v_min:.3g} .. {v_max:.3g}]"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" t: {t_min:.1f}s .. {t_max:.1f}s")
    return "\n".join(lines)


def render_bars(
    rows: Sequence[Dict],
    label_key: str,
    value_key: str,
    annotation_key: Optional[str] = None,
    width: int = 40,
    title: str = "",
) -> str:
    """Horizontal bar chart (for the Fig. 11–16 grouped-bar data)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    peak = max(abs(float(row[value_key])) for row in rows) or 1.0
    label_width = max(len(str(row[label_key])) for row in rows)
    lines = [title] if title else []
    for row in rows:
        value = float(row[value_key])
        bar = "#" * max(0, int(round(value / peak * width)))
        annotation = (
            f"  ({format_value(row[annotation_key])})"
            if annotation_key is not None and annotation_key in row
            else ""
        )
        lines.append(
            f"{str(row[label_key]).ljust(label_width)} "
            f"{format_value(value).rjust(10)} |{bar}{annotation}"
        )
    return "\n".join(lines)
