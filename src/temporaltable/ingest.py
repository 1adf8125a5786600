"""CSV ingestion with column-wise type inference, and CSV output.

Cells are typed per column in a fixed order: integer, then real, then
boolean, then time (only for columns with a declared format, and always for
the index), with text as the fallback.  Integers and reals are JSON numbers
(RFC 8259 section 6); other text, "+5" and "nan" included, stays text,
and so does a number too large for a float ("1e999"), since JSON numbers
are finite.  Empty cells are missing.  The index column is parsed as time:
either at a declared granularity, or by guessing from its first non-empty
value ("ordinal" declares an index of JSON ints).  Output refuses a real
column holding inf or nan by the same rule.

Both ends work a column at a time and touch each distinct time cell once.
A time column keeps a dict from raw text to its parsed value, so a day that
a panel repeats once per series is parsed once; ``TimePoint`` is frozen, so
every row shares the one instance.  Output renders each column by its
declared kind, a time column once per distinct point, and streams the rows.
"""

from __future__ import annotations

import csv
import io
import math
import re

from .errors import IngestError, ParseError, SchemaError
from .granularity import Granularity
from .record import Record
from .table import Column, TemporalTable, build
from .timepoint import JSON_INT, TimePoint, guess_granularity, parse_timepoint

# Numbers follow the JSON grammar (RFC 8259 section 6), matched whole.
_INT_RE = re.compile(JSON_INT)
_NUMBER_RE = re.compile(JSON_INT + r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_BOOL = {"true": True, "false": False}


class IngestConfig(Record):
    __slots__ = ("path", "index", "key", "regular", "time_format", "zone", "delimiter")

    def __init__(
        self,
        path: str,
        index: str,
        key: tuple[str, ...] = (),
        regular: bool = True,
        time_format: dict | None = None,  # column -> granularity name; None is {}
        zone: str | None = None,
        delimiter: str = ",",
    ):
        self.path = path
        self.index = index
        self.key = key
        self.regular = regular
        self.time_format = {} if time_format is None else time_format
        self.zone = zone
        self.delimiter = delimiter


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


def _parse_each_once(cells, parse) -> list:
    """``cells`` (raw text, "" for missing) mapped through ``parse``, which
    sees each distinct text once; a ParseError names the first row holding
    the text."""
    parsed = {"": None}
    try:
        for raw in cells:
            if raw not in parsed:
                parsed[raw] = parse(raw)
    except ParseError as exc:
        row = cells.index(raw) + 2  # the header is row 1
        raise IngestError(f"row {row}: {exc}", row=row) from exc
    return list(map(parsed.__getitem__, cells))


def _parse_time_cells(name, cells, gran_name, zone):
    """Parse a column's raw cells as TimePoints (or ints for ordinal)."""
    if gran_name == "ordinal":
        def parse(raw):
            if not _INT_RE.fullmatch(raw):
                raise ParseError(
                    f"{raw!r} in column {name!r} is not an ordinal (integer) index value"
                )
            return int(raw)

        return _parse_each_once(cells, parse)

    if gran_name in (None, "guess"):
        first = next((raw for raw in cells if raw), None)
        if first is None:
            return [None] * len(cells)
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
    # Called through the module attribute on every miss, so a wrapper
    # installed on ``ingest.parse_timepoint`` sees each distinct cell.
    return _parse_each_once(cells, lambda raw: parse_timepoint(raw, g, zone))


def _first_non_finite(values) -> int | None:
    """Position of the first inf or nan float among ``values``, or None when
    there is none."""
    return next(
        (i for i, v in enumerate(values) if isinstance(v, float) and not math.isfinite(v)), None
    )


def _infer_cells(cells) -> list:
    """Raw cells ("" for missing) typed as one int, real, bool or text column.

    JSON has no inf or nan (RFC 8259 section 6), so a number too large for
    a float (``1e999``) reads as text, as ``inf`` does."""
    distinct = set(cells)
    distinct.discard("")
    if distinct:
        if all(_INT_RE.fullmatch(raw) for raw in distinct):
            return [int(raw) if raw else None for raw in cells]
        if all(_NUMBER_RE.fullmatch(raw) for raw in distinct):
            if all(math.isfinite(float(raw)) for raw in distinct):
                return [float(raw) if raw else None for raw in cells]
        elif all(raw.lower() in _BOOL for raw in distinct):
            return [_BOOL[raw.lower()] if raw else None for raw in cells]
    return [raw or None for raw in cells]


def read_cell(text: str):
    """``text`` typed as a one-cell CSV column: int, real, bool or text, and
    None for the empty string."""
    return _infer_cells((text or "",))[0]


def typed_columns(cfg: IngestConfig, header, rows) -> dict[str, list]:
    # One tuple of raw cells per column, sliced once.
    columns = zip(*rows) if rows else [()] * len(header)
    data = {}
    for name, cells in zip(header, columns):
        if name == cfg.index or name in cfg.time_format:
            data[name] = _parse_time_cells(name, cells, cfg.time_format.get(name), cfg.zone)
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


def _non_finite_error(name: str, row: int, v) -> SchemaError:
    """The error for an inf or nan cell ``v`` of column ``name`` at ``row``:
    a CSV number is a JSON number, and JSON has none (RFC 8259 section 6)."""
    return SchemaError(
        f"real column {name!r} holds {v!r} at row {row}; CSV numbers must be finite"
    )


def write_csv(stream, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, each cell by :func:`render_cell`.

    Raises SchemaError, before writing anything, when a cell is an inf or
    nan float, naming the leftmost such column and its first such row, as
    :func:`table_to_csv` does.  The text is made in a buffer and written
    once it is whole."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    first = None  # (column, row, cell) of the leftmost inf or nan cell
    for i, row in enumerate(rows):
        c = _first_non_finite(row)
        if c is not None and (first is None or c < first[0]):
            first = (c, i, row[c])
        writer.writerow([render_cell(v) for v in row])
    if first is not None:
        c, i, v = first
        raise _non_finite_error(header[c], i, v)
    stream.write(buf.getvalue())


def _time_cells(values, render):
    """``render`` over a time column, rendering each distinct point once.

    Points are cached on (ticks, granularity, zone): TimePoint equality
    ignores the zone, which changes the text.  Granularity members are
    singletons, and keying on their id skips Enum's Python-level hash."""
    text = {}
    for v in values:
        if type(v) is not TimePoint:
            yield render(v)  # missing, or an index adapter's own value
            continue
        key = (v.ticks, id(v.granularity), v.zone)
        s = text.get(key)
        if s is None:
            s = text[key] = render(v)
        yield s


_BOOL_TEXT = {None: "", True: "true", False: "false"}


def _rendered(col: Column, render):
    """The cells of ``col`` as ``render`` writes them, chosen by its kind."""
    if col.kind == "time":
        return _time_cells(col.values, render)
    if col.kind == "bool":
        return map(_BOOL_TEXT.__getitem__, col.values)
    # int, real and text: csv.writer writes None as "", a float by repr and
    # any other cell by str, as render_cell does.
    return col.values


def table_to_csv(t: TemporalTable, stream=None) -> str | None:
    """Write a table as CSV; returns the text when no stream is given.

    The output is what :func:`write_csv` makes of the rows, except that
    index cells are written by the table's index adapter, as the summary
    shows them.  It is built column by column: each column is rendered by
    its declared kind, a time column once per distinct point, and rows are
    streamed to the writer.  Raises SchemaError, before writing anything,
    when a real column holds an inf or nan cell."""
    for name, col in t.columns.items():
        if col.kind == "real":
            bad = _first_non_finite(col.values)
            if bad is not None:
                raise _non_finite_error(name, bad, col.values[bad])
    out = stream or io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(t.column_names)
    renders = (t.adapter.render if name == t.index else render_cell for name in t.columns)
    writer.writerows(zip(*map(_rendered, t.columns.values(), renders)))
    if stream is None:
        return out.getvalue()
    return None
