"""The contextual summary display.

The header reports dimensions and the interval shorthand (plus the zone for
date-time indexes), the key line reports key columns and series count, and a
short preview of rows follows.  Large counts print with thousands separators.
"""

from __future__ import annotations

from .ingest import render_cell
from .table import TemporalTable, key_groups

_PREVIEW_ROWS = 5


def render_summary(t: TemporalTable, preview: int = _PREVIEW_ROWS) -> str:
    g = t.adapter.granularity
    zone = f" <{t.adapter.zone or 'UTC'}>" if g is not None and g.is_subdaily else ""
    lines = [f"# A tsibble: {t.nrows:,} x {t.ncols:,} {t.interval.shorthand()}{zone}"]
    if t.key:
        lines.append(f"# Key:       {', '.join(t.key)} [{len(key_groups(t)):,}]")

    shown = min(preview, t.nrows)
    names = t.column_names

    def show(c, v):
        if c == t.index and v is not None:
            return t.adapter.render(v)
        return render_cell(v)

    cells = [[show(c, t.columns[c].values[i]) for c in names] for i in range(shown)]
    widths = [
        max(len(c), max((len(row[j]) for row in cells), default=0))
        for j, c in enumerate(names)
    ]
    right = [t.kind_of(c) in ("int", "real") for c in names]

    def fmt(row):
        parts = [
            cell.rjust(w) if r else cell.ljust(w)
            for cell, w, r in zip(row, widths, right)
        ]
        return "  ".join(parts).rstrip()

    if names:
        lines.append(fmt(names))
        lines.extend(fmt(row) for row in cells)
    if t.nrows > shown:
        lines.append(f"# ... with {t.nrows - shown:,} more rows")
    return "\n".join(lines)
