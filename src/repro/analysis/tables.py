"""Plain-text table / CSV rendering for the experiment harness.

The benchmark scripts print the tables and figure series the evaluation
plan (DESIGN.md §4) defines; this module keeps the formatting in one place
so benches, examples and EXPERIMENTS.md all show the same layout.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence


Row = Dict[str, object]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(rows: Sequence[Row], *, columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    cells = [[_format_cell(row.get(c, "")) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(cols)]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    out.write(header + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for r in cells:
        out.write("  ".join(v.rjust(w) for v, w in zip(r, widths)) + "\n")
    return out.getvalue().rstrip("\n")


def render_csv(rows: Sequence[Row], *, columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV (no quoting of commas expected in our data)."""
    if not rows:
        return ""
    cols = list(columns) if columns is not None else list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in cols))
    return "\n".join(lines)


def render_series(xs: Sequence[object], ys: Sequence[float], *, label: str = "",
                  width: int = 50) -> str:
    """Tiny ASCII plot of a series (one line per point with a bar).

    Used by the "figure" experiments so the regenerated figure is readable
    directly in the terminal / captured output.
    """
    ys = [float(y) for y in ys]
    if not ys:
        return f"{label}: (empty)"
    top = max(ys) or 1.0
    lines = [f"{label}" if label else "series"]
    for x, y in zip(xs, ys):
        bar = "#" * max(1, int(round(width * y / top))) if y > 0 else ""
        lines.append(f"  {str(x):>12s} | {y:14.3f} {bar}")
    return "\n".join(lines)


def pivot(rows: Sequence[Row], index: str, column: str, value: str) -> List[Row]:
    """Pivot long-format rows into wide format (index rows, one col per value).

    Example: pivot E1 rows on index='n', column='algorithm', value='work'.
    """
    by_index: Dict[object, Row] = {}
    order: List[object] = []
    for row in rows:
        key = row[index]
        if key not in by_index:
            by_index[key] = {index: key}
            order.append(key)
        by_index[key][str(row[column])] = row[value]
    return [by_index[k] for k in order]
