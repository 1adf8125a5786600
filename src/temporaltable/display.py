"""The contextual summary display.

The header reports dimensions and the interval shorthand (plus the zone for
date-time indexes), the key line reports key columns and series count, and a
short preview of rows follows.  Large counts print with thousands separators.
A preview cell that has no text, such as a time point past year 9999, raises
the SchemaError the CSV writers raise, naming its column and row.
"""

from __future__ import annotations

from .ingest import _unwritable_error, render_cell
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

    def show(c):
        values = t.columns[c].values[:shown]
        render = t.adapter.render if c == t.index else render_cell
        try:
            return [render_cell(v) if v is None else render(v) for v in values]
        except (ValueError, OverflowError) as exc:
            raise _unwritable_error(c, values) or exc

    columns = [show(c) for c in names]
    cells = list(zip(*columns))
    widths = [max(map(len, [c, *col])) for c, col in zip(names, columns)]
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
