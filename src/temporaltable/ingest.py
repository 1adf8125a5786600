"""CSV ingestion with column-wise type inference, and CSV output.

Cells are typed per column in a fixed order: integer, then real, then
boolean, then time (only for columns with a declared format, and always for
the index), with text as the fallback.  Integers and reals are JSON numbers
(RFC 8259 section 6); other text, "+5" and "nan" included, stays text, and
so does a number too large for a float ("1e999"), since JSON numbers are
finite.  Empty cells are missing, and blank lines that end the file are
ignored.  The index column is parsed as time: either at a declared
granularity, or by guessing from its first non-empty value ("ordinal"
declares an index of JSON ints).  Output refuses a real column holding inf
or nan by the same rule, an empty text cell, which would read back as
missing, an int too long for ``str`` and a time point whose date has no
text (outside years 1 to 9999).

Both ends work a column at a time and touch each distinct cell once.  A
time column keeps a dict from raw text to its parsed value, so a day that a
panel repeats once per series is parsed once; ``TimePoint`` is frozen, so
every row shares the one instance.  Unzoned text in the exact shape of a
canonical day or hour is read by the stdlib's ``fromisoformat``;
``parse_timepoint``'s grammar reads every other text and gives every error.
A number column is matched and typed once per distinct text, with the cells
gathered from a dict.

CSV is written by two writers.  :func:`table_to_csv` renders each column
by its declared kind, each distinct text once: the index once per distinct
tick, an unzoned one from day down to millisecond from the ticks alone,
with one date text per distinct day.  The report writer :func:`write_csv`
renders each cell by its type; the tests compare the first with it.  Both
check a real column for inf and nan by one float sum, scanned only when it
is not finite, refuse a cell with no text in one place, a catch around the
column loop, and write the rows, LF-ended, in one piece.  A field is quoted
by RFC 4180 when it holds a comma, a quote, CR or LF, and a row whose
only field is empty is written ``""``.  A zoned sub-daily point carries its
UTC offset only where a clock change repeats its local time (see
``timepoint``).
"""

from __future__ import annotations

import csv
import math
import operator
import re
import sys
from itertools import compress, count, repeat

from .adapters import TimeIndex
from .errors import IngestError, MissingIndexError, ParseError, SchemaError
from .granularity import Granularity
from .record import Record
from .table import Column, TemporalTable, build, kind_of_type
from .timepoint import JSON_INT, TimePoint, _is_utc, guess_granularity, parse_timepoint
from .timepoint import _INT_RE, _TICKS_PER_DAY, _read_json_int, _utc_texts

# Numbers follow the JSON grammar (RFC 8259 section 6), matched whole; an
# int cell and an ordinal index value share one pattern, ``_INT_RE``.
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
    # "utf-8-sig" reads past a byte-order mark, which spreadsheets write.
    with open(cfg.path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=cfg.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{cfg.path}: empty file; a header row is required") from None
        rows = list(reader)
    while rows and not rows[-1]:  # blank lines that end the file
        rows.pop()
    bad = next(compress(count(2), map(operator.ne, map(len, rows), repeat(len(header)))), None)
    if bad is not None:
        raise IngestError(f"{cfg.path}: row {bad} has {len(rows[bad - 2])} fields, "
                          f"header has {len(header)}", row=bad)
    if len(set(header)) != len(header):
        raise SchemaError(f"{cfg.path}: duplicate column names in header")
    return header, rows


def _parse_each_once(name, cells, parse) -> list:
    """Column ``name``'s ``cells`` (raw text, "" for missing) mapped through
    ``parse``, which sees each distinct text once; a ParseError names the
    column and the first row holding the text."""
    parsed = {"": None}
    try:
        for raw in cells:
            if raw not in parsed:
                parsed[raw] = parse(raw)
    except ParseError as exc:
        row = cells.index(raw) + 2  # the header is row 1
        raise IngestError(f"row {row}, column {name!r}: {exc}", row=row) from exc
    return list(map(parsed.__getitem__, cells))


def _parse_time_cells(name, cells, gran_name, zone):
    """Parse a column's raw cells as TimePoints (or ints for ordinal)."""
    if gran_name == "ordinal":
        return _parse_each_once(name, cells, _read_json_int)

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
    return _parse_each_once(name, cells, lambda raw: parse_timepoint(raw, g, zone))


def _first_non_finite(values) -> int | None:
    """Position of the first inf or nan float among ``values``, or None when
    there is none.

    A clean column is passed in one C pass: a float sum is finite only when
    every float summed is.  A sum that is not finite (it may just overflow),
    or that cannot be taken (an int too large for a float, a cell of another
    kind), falls through to the scan, which finds the row."""
    try:
        if math.isfinite(sum(filter(None, values), 0.0)):
            return None
    except (OverflowError, TypeError):
        pass
    return next(
        (i for i, v in enumerate(values) if isinstance(v, float) and not math.isfinite(v)), None
    )


def _infer_cells(cells, name=None) -> list:
    """Raw cells ("" for missing) of column ``name`` typed as one int, real,
    bool or text column.

    JSON has no inf or nan (RFC 8259 section 6), so a number too large for
    a float (``1e999``) reads as text, as ``inf`` does.  An int longer than
    the interpreter reads (``sys.get_int_max_str_digits()``) raises
    IngestError naming its row and the column.  Each distinct text is typed
    once, and the cells are gathered from the typed values."""
    distinct = set(cells)
    distinct.discard("")
    typed = None
    if distinct:
        if all(map(_INT_RE.fullmatch, distinct)):
            try:
                typed = dict(zip(distinct, map(int, distinct)))
            except ValueError:  # too many digits: this reader names the cell
                return _parse_each_once(name, cells, _read_json_int)
        elif all(map(_NUMBER_RE.fullmatch, distinct)):
            reals = list(map(float, distinct))
            if all(map(math.isfinite, reals)):
                typed = dict(zip(distinct, reals))
        elif all(raw.lower() in _BOOL for raw in distinct):
            typed = {raw: _BOOL[raw.lower()] for raw in distinct}
    if typed is None:
        return [raw or None for raw in cells]
    typed[""] = None
    return list(map(typed.__getitem__, cells))


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
            data[name] = _infer_cells(cells, name)
    return data


def ingest(cfg: IngestConfig) -> TemporalTable:
    """Read, type, and build; construction errors propagate.  A SchemaError
    names the index, a key or a ``time_format`` column the header lacks,
    and a MissingIndexError the file row of the first empty index cell."""
    header, rows = read_rows(cfg)
    for name in (cfg.index, *cfg.key, *cfg.time_format):
        if name not in header:
            raise SchemaError(f"{cfg.path}: no column named {name!r}")
    data = typed_columns(cfg, header, rows)
    try:
        return build(data, cfg.index, cfg.key, cfg.regular)
    except MissingIndexError:
        row = data[cfg.index].index(None) + 2  # the header is row 1
        raise MissingIndexError(
            f"index column {cfg.index!r} has a missing value at row {row}") from None


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


# A field holding a comma, a quote, CR or LF is quoted (RFC 4180 section 2).
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text: str) -> str:
    """``text`` as one CSV field: in quotes, its quotes doubled, when it
    holds a comma, a quote, CR or LF, and as it is otherwise."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _quoted_each(name: str, texts: list) -> list[str]:
    """Column ``name``'s ``texts`` (None for missing) as CSV fields, each
    distinct text quoted once.  Raises SchemaError for an empty text: its
    field would read back as a missing cell."""
    fields = dict.fromkeys(texts)
    if "" in fields:
        raise SchemaError(
            f"column {name!r} holds an empty text at row {texts.index('')}; "
            "CSV reads an empty field as missing"
        )
    for text in fields:
        fields[text] = "" if text is None else _quoted(text)
    return list(map(fields.__getitem__, texts))


def _csv_text(header, columns) -> str:
    """The CSV text of ``header`` and the rows of ``columns``, each a list
    of fields already rendered and quoted; rows end in LF.

    A row whose only field is empty is written ``""``, as the stdlib csv
    writer writes it, so that it reads back as one empty cell, not a blank
    line."""
    header = list(map(_quoted, header))
    if len(header) == 1:
        lines = [field or '""' for field in (*header, *columns[0])]
    else:
        lines = [",".join(header), *map(",".join, zip(*columns))]
    lines.append("")
    return "\n".join(lines)


def _check_finite(named_columns) -> None:
    """Raise SchemaError for the first inf or nan cell of the first column
    of (name, cells) pairs that holds one: a CSV number is a JSON number,
    and JSON has none (RFC 8259 section 6)."""
    for name, cells in named_columns:
        bad = _first_non_finite(cells)
        if bad is not None:
            raise SchemaError(f"real column {name!r} holds {cells[bad]!r} at row {bad}; "
                              "CSV numbers must be finite")


def _unwritable_error(name: str, cells) -> SchemaError | None:
    """The error for the first cell of column ``name`` that has no text: an
    int with more digits than ``str`` writes (``sys.get_int_max_str_digits()``),
    or a time point whose date lies outside years 1 to 9999.  None when
    there is no such cell."""
    for row, v in enumerate(cells):
        if isinstance(v, TimePoint):
            try:
                v.render()
            except (ValueError, OverflowError) as exc:
                return SchemaError(
                    f"column {name!r} holds a time point at row {row} ({v.granularity.value}"
                    f" tick {v.ticks}) that cannot be written: {exc}"
                )
        elif isinstance(v, int):
            try:
                str(v)
            except ValueError:
                return SchemaError(
                    f"column {name!r} holds an int of more than {sys.get_int_max_str_digits()}"
                    f" digits at row {row}; str() writes none that long"
                )
    return None


def write_csv(stream, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, each cell by :func:`render_cell`.

    The report writer knows no column kinds, only each cell's
    (``table.kind_of_type``); the tests compare :func:`table_to_csv` with
    it.  A column of time and missing cells renders each distinct point
    once, and only a column holding a real cell is checked for inf and nan.
    Raises SchemaError, before writing anything, when a cell is an inf or
    nan float, naming the leftmost such column and its first such row, as
    :func:`table_to_csv` does, then for the first empty text cell, an int
    too long to write and a time point past what dates write."""
    columns = list(zip(*rows)) or [()] * len(header)
    kinds = [set(map(kind_of_type, set(map(type, cells)))) for cells in columns]
    _check_finite((name, cells) for name, cells, held in zip(header, columns, kinds)
                  if "real" in held)
    fields = []
    for name, cells, held in zip(header, columns, kinds):
        try:
            fields.append(_time_fields(cells) if held <= {"time", None} else _quoted_each(
                name, [v if v is None else render_cell(v) for v in cells]))
        except (ValueError, OverflowError) as exc:
            raise _unwritable_error(name, cells) or exc
    stream.write(_csv_text(header, fields))


def _time_fields(values) -> list[str]:
    """TimePoints and missing cells as quoted CSV fields, rendering and
    quoting each distinct point once.

    Points are cached on (ticks, granularity, zone): TimePoint equality
    ignores the zone, which changes the text."""
    fields = {}
    out = []
    for v in values:
        if v is None:
            out.append("")
            continue
        key = (v.ticks, v.granularity, v.zone)
        s = fields.get(key)
        if s is None:
            s = fields[key] = _quoted(v.render())
        out.append(s)
    return out


def _index_fields(t: TemporalTable) -> list[str]:
    """The index cells of ``t`` as CSV fields, keyed by their ticks: each
    distinct tick is written once, and the fields are gathered in one pass.

    An unzoned :class:`TimeIndex` from day down to millisecond is written
    from the ticks alone, one date text per distinct day (see
    ``timepoint._utc_texts``); its canonical text never needs quotes.  Any
    other index renders each distinct tick's cell through its adapter and
    quotes it."""
    ticks = t.ticks()
    adapter = t.adapter
    if (type(adapter) is TimeIndex and _is_utc(adapter.zone)
            and adapter.granularity in _TICKS_PER_DAY):
        fields = _utc_texts(ticks, adapter.granularity)
    else:
        fields = dict(zip(ticks, t.columns[t.index].values))
        for tick, v in fields.items():
            fields[tick] = _quoted(adapter.render(v))
    return list(map(fields.__getitem__, ticks))


_BOOL_TEXT = {None: "", True: "true", False: "false"}


def _fields(name: str, col: Column) -> list[str]:
    """The cells of ``col`` as CSV fields, rendered by its declared kind:
    reals by ``repr``, ints by ``str``, bools as ``true``/``false`` and time
    cells by ``TimePoint.render``.  Only text and time fields can need
    quotes.  An empty text raises SchemaError naming column ``name``; a
    cell with no text raises its renderer's error to the caller."""
    values = col.values
    if col.kind == "real":
        return ["" if v is None else repr(v) for v in values]
    if col.kind == "int":
        return ["" if v is None else str(v) for v in values]
    if col.kind == "bool":
        return list(map(_BOOL_TEXT.__getitem__, values))
    if col.kind == "time":
        return _time_fields(values)
    return _quoted_each(name, values)


def table_to_csv(t: TemporalTable, stream=None) -> str | None:
    """Write a table as CSV; returns the text when no stream is given.

    The output is what :func:`write_csv` makes of the rows, except that
    index cells are written by the table's index adapter, as the summary
    shows them.  It is built column by column: each column is rendered by
    its declared kind, a time column once per distinct point, and the index
    once per distinct tick, an unzoned time index straight from its ticks
    with one date text per distinct day; the rows are then joined and
    written in one piece.  Raises SchemaError, before writing anything,
    when a real column holds an inf or nan cell; then, column by column,
    when a text column holds an empty text, and for an int too long to
    write or a time point whose date lies outside years 1 to 9999, naming
    the column and row.  Any other error of an adapter's ``render`` reaches
    the caller as raised."""
    _check_finite((name, col.values) for name, col in t.columns.items() if col.kind == "real")
    fields = []
    for name, col in t.columns.items():
        try:
            fields.append(_index_fields(t) if name == t.index and col.kind == "time"
                          else _fields(name, col))
        except (ValueError, OverflowError) as exc:
            raise _unwritable_error(name, col.values) or exc
    text = _csv_text(t.column_names, fields)
    if stream is None:
        return text
    stream.write(text)
    return None
