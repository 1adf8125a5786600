"""The contextual summary display.

The header reports dimensions and the interval shorthand (plus the zone for
date-time indexes), the key line reports key columns and series count, and a
short preview of rows follows.  Large counts print with thousands separators.
"""

from __future__ import annotations

from .errors import PreconditionError
from .ingest import _TEXT_BY_KIND, _unwritable_error
from .table import TemporalTable, key_groups

_PREVIEW_ROWS = 5


def render_summary(t: TemporalTable, preview: int = _PREVIEW_ROWS) -> str:
    """The summary of ``t``, previewing ``preview`` rows, an int of at least
    0, else PreconditionError.  A cell is written as the CSV writers write
    it, unquoted; one with no text raises their SchemaError, naming its
    column and row, from one catch around the column loop; an index
    adapter's own ``render`` error passes through."""
    if not isinstance(preview, int) or isinstance(preview, bool) or preview < 0:
        raise PreconditionError(f"preview must be a non-negative integer, got {preview!r}")
    g = t.adapter.granularity
    zone = f" <{t.adapter.zone or 'UTC'}>" if g is not None and g.is_subdaily else ""
    lines = [f"# A tsibble: {t.nrows:,} x {t.ncols:,} {t.interval.shorthand()}{zone}"]
    if t.key:
        lines.append(f"# Key:       {', '.join(t.key)} [{len(key_groups(t)):,}]")

    shown = min(preview, t.nrows)
    names = t.column_names

    columns = []
    for c in names:
        values = t.columns[c].values[:shown]
        render = t.adapter.render if c == t.index else _TEXT_BY_KIND[t.kind_of(c)]
        try:
            columns.append(["" if v is None else render(v) for v in values])
        except (ValueError, OverflowError) as exc:
            raise _unwritable_error(c, values) or exc
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
