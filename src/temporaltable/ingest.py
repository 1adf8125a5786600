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

A file with no quote, CR or NUL is split into lines and each line on the
delimiter; ``csv.reader`` reads every other file, and both give the same
rows.  Both ends work a column at a time and touch each distinct cell once.
A time column keeps a dict from raw text to its parsed value, so a day that
a panel repeats once per series is parsed once; ``TimePoint`` is frozen, so
every row shares the one instance.  A column of unzoned sub-daily text in
canonical shape is read a date at a time: each distinct date is parsed
once, as a day, by ``parse_timepoint``, and each distinct clock read once.
Any other time column is read text by text by ``parse_timepoint``, whose
grammar words every error.  A number column's distinct texts are checked
by one pattern match over them all, then typed once each, with the cells
gathered from a dict.

A cell is rendered one way, by its column's kind (``_TEXT_BY_KIND``), in
both CSV writers, the summary and ``spread``'s level names.  The report
writer :func:`write_csv` first types each column of its rows.
:func:`table_to_csv` writes the index once per distinct tick, an unzoned
one from day down to millisecond from the ticks alone.  Both check a real
column for inf and nan by one float sum, scanned only when it is not
finite, render a time column once per distinct point, refuse a cell with
no text in one place, a catch around the column loop, and write the rows,
LF-ended, in one piece.  A field is quoted by RFC 4180 when it holds a
comma, a quote, CR or LF, and a row whose only field is empty is written
``""``.  A zoned sub-daily point carries its UTC offset only where a clock
change repeats its local time (see ``timepoint``).
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import operator
import re
import sys
from itertools import compress, count, repeat

from .adapters import TimeIndex
from .errors import IngestError, MissingIndexError, ParseError, SchemaError
from .granularity import MS_PER_TICK, Granularity
from .record import Record
from .table import Column, TemporalTable, build, infer_kind
from .timepoint import JSON_INT, TimePoint, _is_utc, guess_granularity, parse_timepoint
from .timepoint import _TICKS_PER_DAY, _read_json_int, _utc_texts


def _many(pattern: str) -> re.Pattern:
    """The pattern of one or more texts matching ``pattern``, a newline between."""
    return re.compile(f"(?:{pattern}\n)*{pattern}")


def _all_match(many: re.Pattern, texts) -> bool:
    """Whether every text of ``texts``, a non-empty collection, matches the
    pattern that ``many`` repeats: one ``fullmatch`` over the texts joined
    by newlines.  A text that holds a newline never matches."""
    joined = "\n".join(texts)
    return joined.count("\n") == len(texts) - 1 and many.fullmatch(joined) is not None


# Numbers follow the JSON grammar (RFC 8259 section 6), matched whole; an
# int cell and an ordinal index value share one pattern, ``JSON_INT``.
_INTS = _many(JSON_INT)
_NUMBERS = _many(JSON_INT + r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
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


def _read_text(path: str) -> str:
    """The text of the file at ``path``, decoded as UTF-8 past a leading
    byte-order mark, which spreadsheets write.  Bytes that are not UTF-8
    raise IngestError naming the line that holds the first of them."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # A sentinel byte ends the last line, so it is counted complete or not.
        line = len((data[:exc.start] + b".").splitlines())
        raise IngestError(f"{path}: line {line} is not UTF-8 text "
                          f"({data[exc.start:exc.end]!r}: {exc.reason})") from None


def _plain_lines(text: str) -> list[str] | None:
    """The lines of ``text``, blank lines that end it dropped, when
    ``str.split`` on the delimiter reads each one as ``csv.reader`` does;
    None otherwise.  That holds when the text has no quote, CR or NUL, no
    blank line before its last row and no line longer than
    ``csv.field_size_limit()``, so that no field exceeds the limit."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    while lines and not lines[-1]:
        lines.pop()
    limit = csv.field_size_limit()
    if not lines or "" in lines or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    return lines


def read_rows(cfg: IngestConfig) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of ``cfg.path``, one list of text cells
    each: split by ``_plain_lines`` where it can, else read by
    ``csv.reader``.  Raises IngestError for an empty file, bytes that are
    not UTF-8, a field longer than ``csv.field_size_limit()`` and a row
    whose width differs from the header's, and SchemaError for a repeated
    column name."""
    text = _read_text(cfg.path)
    # Built on every file, so a delimiter the csv module refuses is refused
    # whichever way the file is read.
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=cfg.delimiter)
    lines = _plain_lines(text)
    if lines is not None:
        header, *rows = map(str.split, lines, repeat(cfg.delimiter))
    else:
        rows = []
        try:
            for row in reader:
                rows.append(row)
        except csv.Error as exc:
            raise IngestError(f"{cfg.path}: row {len(rows) + 1}: {exc}",
                              row=len(rows) + 1) from None
        if not rows:
            raise IngestError(f"{cfg.path}: empty file; a header row is required")
        header = rows.pop(0)
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


# The canonical unzoned text of each sub-daily granularity: a date, then a
# clock down to the granularity; a UTC hour or minute has no seconds.
_CLOCK_TEXTS = {
    g: _many("[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:" + clock)
    for g, clock in ((Granularity.HOUR, "00"), (Granularity.MINUTE, "[0-9]{2}"),
                     (Granularity.SECOND, "[0-9]{2}:[0-9]{2}"),
                     (Granularity.MILLISECOND, r"[0-9]{2}:[0-9]{2}\.[0-9]{3}"))
}


def _clock_ticks(clock: str, g: Granularity) -> int | None:
    """Ticks at ``g`` since midnight of ``clock``, a canonical clock text
    (`` HH:MM``, then ``:SS`` and ``.fff`` as ``g`` has them), or None when
    a field is out of range."""
    h, mi, s = int(clock[1:3]), int(clock[4:6]), int(clock[7:9] or 0)
    if h > 23 or mi > 59 or s > 59:
        return None
    return (((h * 60 + mi) * 60 + s) * 1000 + int(clock[10:] or 0)) // MS_PER_TICK[g]


def _clock_points(cells, g: Granularity, zone) -> list | None:
    """The unzoned sub-daily points of ``cells`` (raw text, "" for missing)
    at ``g``, or None unless every text is canonical and valid, when the
    grammar reads the column and words its first error.

    Each distinct date is parsed once, as a day, through the module
    attribute ``parse_timepoint``; each distinct clock is read once; a
    text's ticks are its day's first tick plus its clock's."""
    texts = dict.fromkeys(cells)
    texts.pop("", None)
    if not texts or not _all_match(_CLOCK_TEXTS[g], texts):
        return None
    per_day = _TICKS_PER_DAY[g]
    try:
        days = {date: parse_timepoint(date, Granularity.DAY).ticks * per_day
                for date in {text[:10] for text in texts}}
    except ParseError:
        return None
    clocks = {clock: _clock_ticks(clock, g) for clock in {text[10:] for text in texts}}
    if None in clocks.values():
        return None
    points = {text: TimePoint(days[text[:10]] + clocks[text[10:]], g, zone) for text in texts}
    points[""] = None
    return list(map(points.__getitem__, cells))


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
    if g in _CLOCK_TEXTS and _is_utc(zone):
        points = _clock_points(cells, g, zone)
        if points is not None:
            return points
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
        if _all_match(_INTS, distinct):
            try:
                typed = dict(zip(distinct, map(int, distinct)))
            except ValueError:  # too many digits: this reader names the cell
                return _parse_each_once(name, cells, _read_json_int)
        elif _all_match(_NUMBERS, distinct):
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
    """Write ``header`` and ``rows`` as CSV.  Each column is typed as
    ``build`` types a plain list, then written by its kind as in
    :func:`table_to_csv`.  Raises SchemaError, before writing anything, for
    the first column that mixes cell kinds or holds a cell of no kind; then
    for an inf or nan real, and, column by column, an empty text, an int
    too long to write or a time point outside years 1 to 9999, naming the
    column and row."""
    columns = list(zip(*rows)) or [()] * len(header)
    stream.write(_written(header, [Column(infer_kind(cells, f"column {name!r}"), cells)
                                   for name, cells in zip(header, columns)]))


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


# The text of a present cell by its column's kind; a time cell's ``render``
# is looked up on the cell.
_TEXT_BY_KIND = {"real": repr, "int": str, "bool": {True: "true", False: "false"}.__getitem__,
                 "time": operator.methodcaller("render"), "text": str, None: str}


def _fields(name: str, col: Column) -> list[str]:
    """The cells of ``col`` as CSV fields, rendered by its declared kind
    (``_TEXT_BY_KIND``).  Only text and time fields can need quotes.  An
    empty text raises SchemaError naming column ``name``; a cell with no
    text raises its renderer's error to the caller."""
    if col.kind == "time":
        return _time_fields(col.values)
    if col.kind in ("text", None):
        return _quoted_each(name, col.values)
    render = _TEXT_BY_KIND[col.kind]
    return ["" if v is None else render(v) for v in col.values]


def _written(names, columns, fields=_fields) -> str:
    """The CSV text of ``columns``, a list of :class:`Column`, under the
    header ``names``, each column's fields made by ``fields(name, col)``:
    the body both writers share."""
    _check_finite((name, col.values) for name, col in zip(names, columns) if col.kind == "real")
    out = []
    for name, col in zip(names, columns):
        try:
            out.append(fields(name, col))
        except (ValueError, OverflowError) as exc:
            raise _unwritable_error(name, col.values) or exc
    return _csv_text(names, out)


def table_to_csv(t: TemporalTable, stream=None) -> str | None:
    """Write a table as CSV; returns the text when no stream is given.

    Each column is written by its declared kind, except that index cells
    are written by the table's index adapter, as the summary shows them:
    once per distinct tick, an unzoned time index straight from its ticks
    with one date text per distinct day.  The rows are then joined and
    written in one piece.  Raises SchemaError, before writing anything, as
    :func:`write_csv` does for typed columns; any other error of an
    adapter's ``render`` reaches the caller as raised."""
    def fields(name, col):
        return _index_fields(t) if name == t.index and col.kind == "time" else _fields(name, col)

    text = _written(t.column_names, list(t.columns.values()), fields)
    if stream is None:
        return text
    stream.write(text)
    return None
