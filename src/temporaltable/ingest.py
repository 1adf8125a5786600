"""CSV ingestion with column-wise type inference, and CSV output.

Cells are typed per column in a fixed order: integer, then real, then
boolean, then time (only for columns with a declared format, and always for
the index), with text as the fallback.  Empty cells are missing.  The index
column is parsed as time: either at a declared granularity, or by guessing
from its first non-empty value ("ordinal" declares a plain-integer index).
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

from .errors import IngestError, ParseError, SchemaError
from .granularity import Granularity
from .table import TemporalTable, build
from .timepoint import TimePoint, guess_granularity, parse_timepoint

_INT_RE = re.compile(r"^[+-]?\d+$")
_BOOL = {"true": True, "false": False}


@dataclass
class IngestConfig:
    path: str
    index: str
    key: tuple[str, ...] = ()
    regular: bool = True
    time_format: dict = field(default_factory=dict)  # column -> granularity name
    zone: str | None = None
    delimiter: str = ","


def read_rows(cfg: IngestConfig) -> tuple[list[str], list[list[str]]]:
    with open(cfg.path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=cfg.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{cfg.path}: empty file; a header row is required") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestError(
                    f"{cfg.path}: row {lineno} has {len(row)} fields, "
                    f"header has {len(header)}",
                    row=lineno,
                )
            rows.append(row)
    if len(set(header)) != len(header):
        raise SchemaError(f"{cfg.path}: duplicate column names in header")
    return header, rows


def _parse_time_cells(name, cells, gran_name, zone):
    """Parse a column's raw cells as TimePoints (or ints for ordinal)."""
    if gran_name == "ordinal":
        out = []
        for lineno, raw in cells:
            if raw is None:
                out.append(None)
            elif _INT_RE.match(raw):
                out.append(int(raw))
            else:
                raise IngestError(
                    f"row {lineno}: {raw!r} in column {name!r} is not an "
                    "ordinal (integer) index value",
                    row=lineno,
                )
        return out

    if gran_name in (None, "guess"):
        first = next((raw for _, raw in cells if raw is not None), None)
        if first is None:
            return [None for _ in cells]
        g = guess_granularity(first)
        if g is None:
            raise IngestError(
                f"cannot guess the time granularity of column {name!r} "
                f"from {first!r}; declare one with a time format"
            )
    else:
        try:
            g = Granularity(gran_name)
        except ValueError:
            raise IngestError(f"unknown granularity {gran_name!r} for column {name!r}") from None

    out = []
    for lineno, raw in cells:
        if raw is None:
            out.append(None)
            continue
        try:
            out.append(parse_timepoint(raw, g, zone))
        except ParseError as exc:
            raise IngestError(f"row {lineno}: {exc}", row=lineno) from exc
    return out


def _infer_cells(cells):
    pool = [raw for _, raw in cells if raw is not None]
    if pool and all(_INT_RE.match(raw) for raw in pool):
        return [None if raw is None else int(raw) for _, raw in cells]
    if pool:
        try:
            floats = [None if raw is None else float(raw) for _, raw in cells]
        except ValueError:
            floats = None
        if floats is not None:
            return floats
    if pool and all(raw.lower() in _BOOL for raw in pool):
        return [None if raw is None else _BOOL[raw.lower()] for _, raw in cells]
    return [raw for _, raw in cells]


def read_cell(text: str):
    """``text`` typed as a one-cell CSV column: int, real, bool or text, and
    None for the empty string."""
    return _infer_cells([(1, text or None)])[0]


def typed_columns(cfg: IngestConfig, header, rows) -> dict[str, list]:
    data = {}
    for j, name in enumerate(header):
        cells = [
            (lineno, row[j] if row[j] != "" else None)
            for lineno, row in enumerate(rows, start=2)
        ]
        if name == cfg.index:
            data[name] = _parse_time_cells(name, cells, cfg.time_format.get(name), cfg.zone)
        elif name in cfg.time_format:
            data[name] = _parse_time_cells(name, cells, cfg.time_format[name], cfg.zone)
        else:
            data[name] = _infer_cells(cells)
    return data


def ingest(cfg: IngestConfig) -> TemporalTable:
    """Read, type, and build; construction errors propagate."""
    if cfg.index in cfg.key:
        raise SchemaError(f"index column {cfg.index!r} cannot also be a key column")
    header, rows = read_rows(cfg)
    if cfg.index not in header:
        raise SchemaError(f"{cfg.path}: no column named {cfg.index!r}")
    data = typed_columns(cfg, header, rows)
    return build(data, cfg.index, cfg.key, cfg.regular)


# --- CSV output -------------------------------------------------------------


def render_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, TimePoint):
        return v.render()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(stream, header, rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([render_cell(v) for v in row])


def table_to_csv(t: TemporalTable, stream=None) -> str | None:
    """Write a table as CSV; returns the text when no stream is given."""
    out = stream or io.StringIO()
    names = t.column_names
    write_csv(out, names, ([t.columns[c].values[i] for c in names] for i in range(t.nrows)))
    if stream is None:
        return out.getvalue()
    return None
