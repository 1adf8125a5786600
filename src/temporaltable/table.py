"""Temporal tables: columnar data plus index, key and interval semantics.

A table is built from plain column data.  Construction checks that the
(key, index) pairs uniquely identify rows, sorts everything past-to-future
within each key, and infers the interval.  Columns keep their original
values untouched; the engine works on a parallel vector of integer ticks
derived from the index column.

Sorting works on one int per row, its row key, made afresh by each sort
and never stored.  Each key column is dictionary-encoded: its distinct
cells get codes in ``_sort_cell`` order (missing last), and equal cells
(``1`` and ``1.0``, ``0.0`` and ``-0.0``) share a code.  The codes and the
tick are read as digits of one mixed-radix number whose last digit spans
the table's ticks, so row keys order rows as the ``(key cells..., tick)``
tuples of ``_sort_keys`` do, and two rows share a row key exactly when
they share a (key, index) pair.

The series the sorted row keys give are stored: a series ends wherever
the key digits of the row key change, and the table keeps those end
offsets (``_ends``), a run-end encoding of its key columns that ``take``
and ``key_groups`` read in place of the key cells.  ``validate_table``
keeps to the tuples and to runs of equal key cells, so it checks the row
keys and the stored ends rather than trusting them.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import compress, count, repeat

from .adapters import IndexAdapter, resolve_index
from .errors import (
    DuplicateIndexError,
    MissingIndexError,
    PreconditionError,
    SchemaError,
    ValidityError,
)
from .interval import Interval, infer_from_ticks
from .record import Frozen, Record, set_field
from .timepoint import TimePoint

# Cell kinds: "int", "real", "text", "bool", "time".  Missing cells are None.
KINDS = ("int", "real", "text", "bool", "time")


class Column(Record):
    __slots__ = ("kind", "values")

    def __init__(self, kind: str, values: list):
        self.kind = kind
        self.values = values

    def __len__(self):
        return len(self.values)


# Tried in this order by cell_kind: bool before int, which it subclasses.
_KIND_OF_TYPE = {
    type(None): None,
    bool: "bool",
    int: "int",
    float: "real",
    str: "text",
    TimePoint: "time",
}


def cell_kind(v) -> str | None:
    for tp, kind in _KIND_OF_TYPE.items():
        if isinstance(v, tp):
            return kind
    raise SchemaError(f"unsupported cell value {v!r} of type {type(v).__name__}")


def common_kind(kinds) -> str | None:
    """The kind of a column holding cells of ``kinds``: int and real make
    real, and missing cells (kind None) fit any kind.  None when no kind is
    given; any other mix raises."""
    kinds = set(kinds) - {None}
    if len(kinds) > 1 and kinds != {"int", "real"}:
        raise SchemaError(f"column mixes cell kinds: {sorted(kinds)}")
    return "real" if len(kinds) > 1 else next(iter(kinds), None)


def as_kind(v, kind: str):
    """Cell ``v`` as a cell of a ``kind`` column: an int widens to float in a
    real column.  Raises SchemaError when ``v`` is no such cell."""
    got = cell_kind(v)
    if got == kind:
        return v
    if kind == "real" and got == "int":
        return float(v)
    raise SchemaError(f"{v!r} ({got}) does not fit kind {kind!r}")


def infer_kind(values: Sequence) -> str | None:
    """Column kind from its values; None when no cell is present."""
    types = set(map(type, values))
    if types.issubset(_KIND_OF_TYPE):
        return common_kind(map(_KIND_OF_TYPE.get, types))
    # Subclasses and unsupported cells: classify cell by cell, which raises
    # for the first unsupported cell in column order.
    return common_kind(map(cell_kind, values))


def _check_time_column(name: str, values: Sequence) -> None:
    grans = {v.granularity for v in values if v is not None}
    if len(grans) > 1:
        names = ", ".join(sorted(g.value for g in grans))
        raise SchemaError(f"time column {name!r} mixes granularities: {names}")


def _sort_cell(v):
    # Missing cells form a distinct level that sorts last, and NaN, which
    # compares false with every number, sorts after the numbers and before
    # the missing cells.
    if v is None:
        return (2,)
    if isinstance(v, TimePoint):
        return (0, v.ticks)
    if v != v:
        return (1,)
    return (0, v)


def _sort_keys(columns, key, ticks) -> list:
    """Per row, a flat (key cells..., tick) tuple ordering rows canonically.

    A key column without missing or time cells sorts by its raw cells,
    which order exactly as their ``_sort_cell`` forms do.
    """
    if not key:
        return ticks
    parts = []
    for k in key:
        col = columns[k]
        if col.kind == "time" or None in col.values:
            parts.append([_sort_cell(v) for v in col.values])
        else:
            parts.append(col.values)
    return list(zip(*parts, ticks))


def _row_keys(columns, key, ticks) -> list[int]:
    """One int per row: the key columns' codes, then the tick, as digits of
    one mixed-radix number whose last digit spans the table's ticks.

    A key column's codes follow ``_sort_cell`` order, with missing cells
    last, and cells that compare equal share a code.  Each code is made
    already multiplied by the weight of its digit.
    """
    lo = min(ticks, default=0)
    span = max(ticks, default=0) - lo + 1
    row_keys, weight = ticks, span
    for k in reversed(key):
        values = columns[k].values
        if columns[k].kind == "time":
            # A time column has one granularity, so ticks order its cells.
            values = [None if v is None else v.ticks for v in values]
        levels = set(values)
        levels.discard(None)
        code = dict(zip(sorted(levels), range(0, weight * len(levels), weight)))
        code[None] = weight * len(levels)
        row_keys = list(map(operator.add, map(code.__getitem__, values), row_keys))
        weight *= len(levels) + 1
    return row_keys


def _run_ends(sorted_row_keys: list[int], ticks) -> list[int]:
    """Exclusive end offset of each series in rows sorted on their row keys.

    The key digits of a row key are ``(row key - lowest tick) // span``;
    the tick digit is the raw tick, not offset by the lowest one.
    """
    if not sorted_row_keys:
        return []
    lo = min(ticks)
    span = max(ticks) - lo + 1
    series = [(rk - lo) // span for rk in sorted_row_keys]
    ends = list(compress(count(1), map(operator.ne, series, series[1:])))
    ends.append(len(series))
    return ends


# --- grouping metadata -----------------------------------------------------


class Grouping(Frozen):
    """Active grouping: plain columns and/or a derived index.

    ``index_rule`` is what ``index_by`` was given, a granularity or a
    callable over index cells, and ``index_name`` names the index that
    ``summarize`` derives by it.  A grouping holds the rule, not its cells,
    so it applies to whatever index cells a table has, new ones included.
    """

    __slots__ = ("by", "index_name", "index_rule")

    def __init__(self, by: tuple[str, ...] = (), index_name: str | None = None, index_rule=None):
        set_field(self, "by", by)
        set_field(self, "index_name", index_name)
        set_field(self, "index_rule", index_rule)


# --- reports ---------------------------------------------------------------


class DuplicateReport(Record):
    """Rows whose (key, index) pair occurs more than once, in source order."""

    __slots__ = ("index", "key", "rows", "positions")

    def __init__(self, index: str, key: tuple[str, ...], rows: list[dict], positions: list[int]):
        self.index = index
        self.key = key
        self.rows = rows
        self.positions = positions

    def __bool__(self):
        return bool(self.rows)

    def __len__(self):
        return len(self.rows)


# --- the table -------------------------------------------------------------


class TemporalTable:
    """Columnar table with time-index, key and interval semantics.

    Instances are treated as immutable: every operation returns a new table.
    Do not mutate the lists returned by :meth:`column`.  Tables are made by
    :func:`build`, moved row-wise by :func:`rows_at`, and otherwise derived
    with :func:`replace`, so every field in ``__slots__`` travels with the
    table unless a verb changes it.

    Rows are always in canonical order: by key, past-to-future within each
    series.  ``_ends`` holds the exclusive end row of each series, in row
    order, and a series' key tuple is read from its last row.  ``notes``
    are derived from the key columns on each read.
    """

    __slots__ = (
        "columns",
        "index",
        "key",
        "interval",
        "declared_regular",
        "adapter",
        "groups",
        "_ticks",
        "_ends",
    )

    def __init__(
        self,
        columns: dict[str, Column],
        index: str,
        key: tuple[str, ...],
        interval: Interval,
        declared_regular: bool,
        adapter: IndexAdapter,
        groups: Grouping | None = None,
        _ticks: list[int] | None = None,
        _ends: list[int] | None = None,
    ):
        self.columns = columns
        self.index = index
        self.key = key
        self.interval = interval
        self.declared_regular = declared_regular
        self.adapter = adapter
        self.groups = groups
        self._ticks = _ticks
        self._ends = _ends

    # -- basic accessors --

    @property
    def nrows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def notes(self) -> tuple[str, ...]:
        """One note per key column that is entirely missing."""
        return _key_notes(self.columns, self.key)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    @property
    def schema(self) -> list[tuple[str, str]]:
        return [(name, col.kind) for name, col in self.columns.items()]

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise SchemaError(f"no column named {name!r}")
        return self.columns[name].values

    def kind_of(self, name: str) -> str:
        if name not in self.columns:
            raise SchemaError(f"no column named {name!r}")
        return self.columns[name].kind

    def row(self, i: int) -> dict:
        return {name: col.values[i] for name, col in self.columns.items()}

    def rows(self) -> Iterable[dict]:
        return row_dicts(list(self.columns), [col.values for col in self.columns.values()])

    def to_dict(self) -> dict[str, list]:
        return {name: list(col.values) for name, col in self.columns.items()}

    def ticks(self) -> list[int]:
        """Integer ticks of the index cells, in row order, as built."""
        return self._ticks

    def key_tuple(self, i: int) -> tuple:
        return tuple(self.columns[k].values[i] for k in self.key)

    def __eq__(self, other):
        if not isinstance(other, TemporalTable):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.index == other.index
            and self.key == other.key
            and self.interval == other.interval
            and all(
                self.columns[n].values == other.columns[n].values for n in self.columns
            )
        )

    def __repr__(self):
        return (
            f"<TemporalTable {self.nrows} x {self.ncols} {self.interval} "
            f"index={self.index!r} key={list(self.key)!r}>"
        )


def replace(obj: TemporalTable | Grouping, **changes):
    """A copy of ``obj``, a table or a grouping, with the fields named in
    ``changes`` set anew; every other field carries over."""
    fields = {name: getattr(obj, name) for name in obj.__slots__}
    fields.update(changes)
    return type(obj)(**fields)


def row_dicts(names: Sequence[str], columns: Iterable[Sequence]) -> Iterator[dict]:
    """One ``{name: cell}`` dict per row of the equal-length ``columns``."""
    return map(dict, map(zip, repeat(names), zip(*columns)))


def _sorted_rows(t: TemporalTable, rows_of: dict[int, int]) -> TemporalTable:
    """``t`` in canonical order, with its series ends, given the row of
    each (unique) row key."""
    row_keys = sorted(rows_of)
    out = rows_at(t, list(map(rows_of.__getitem__, row_keys)))
    return replace(out, _ends=_run_ends(row_keys, t.ticks()))


# --- construction ----------------------------------------------------------


def _normalize_raw(raw) -> dict[str, Column | list]:
    if isinstance(raw, TemporalTable):
        return dict(raw.columns)
    if not isinstance(raw, Mapping):
        raise SchemaError("raw table must be a mapping of column name to values")
    cols = {str(name): c if isinstance(c, Column) else list(c) for name, c in raw.items()}
    lengths = {len(v) for v in cols.values()}
    if len(lengths) > 1:
        raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
    return cols


def _prepare(
    raw,
    index: str,
    key: Sequence[str],
    adapter: str | IndexAdapter | None,
    *,
    allow_missing_index: bool,
):
    data = _normalize_raw(raw)
    if index not in data:
        raise SchemaError(f"index column {index!r} not found")
    key = tuple(key)
    if index in key:
        raise SchemaError(f"index column {index!r} cannot also be a key column")
    for k in key:
        if k not in data:
            raise SchemaError(f"key column {k!r} not found")
    if len(set(key)) != len(key):
        raise SchemaError(f"duplicate key columns: {list(key)}")

    idx_values = getattr(data[index], "values", data[index])
    has_missing = any(v is None for v in idx_values)
    if has_missing and not allow_missing_index:
        pos = next(i for i, v in enumerate(idx_values) if v is None)
        raise MissingIndexError(f"index column {index!r} has a missing value at row {pos}")
    adapter = resolve_index(index, idx_values, adapter)

    columns: dict[str, Column] = {}
    for name, col in data.items():
        if name == index:
            # Index cells may be adapter values; the adapter vouches for them.
            columns[name] = Column(adapter.cell_kind, idx_values)
        else:
            columns[name] = _typed_column(name, col)
    for k in key:
        if columns[k].kind == "real":
            # NaN equals nothing, itself included, so it can neither sort
            # nor tell series apart.
            pos = next((i for i, v in enumerate(columns[k].values) if v != v), None)
            if pos is not None:
                raise SchemaError(f"key column {k!r} holds NaN at row {pos}")
    ticks = [None if v is None else adapter.to_ticks(v) for v in idx_values]
    if not set(map(type, ticks)) <= {int, type(None)}:
        # Subclasses of int other than bool pass; any other tick names its row.
        for i, tk in enumerate(ticks):
            if tk is not None and (not isinstance(tk, int) or isinstance(tk, bool)):
                raise SchemaError(f"index value {idx_values[i]!r} does not map to integer ticks")
    return columns, key, adapter, ticks


def _typed_column(name: str, col: Column | list) -> Column:
    """A non-index column: a :class:`Column` keeps its declared kind, which
    must hold its cells; plain values get the kind of their cells ("text"
    when no cell is present)."""
    if isinstance(col, Column):
        actual = infer_kind(col.values)
        try:
            fits = common_kind((col.kind, actual)) == col.kind
        except SchemaError:
            fits = False
        if not fits:
            raise SchemaError(f"column {name!r} of kind {col.kind!r} holds {actual} cells")
    else:
        col = Column(infer_kind(col) or "text", col)
    if col.kind == "time":
        _check_time_column(name, col.values)
    return col


def _key_notes(columns: dict[str, Column], key: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(
        f"key column {name!r} is entirely missing; treated as one level"
        for name, col in columns.items()
        if name in key and col.values and col.values.count(None) == len(col.values)
    )


def _scan_duplicates(columns, index, key, ticks) -> DuplicateReport:
    seen: dict[tuple, list[int]] = {}
    for i in range(len(ticks)):
        kt = tuple(columns[k].values[i] for k in key)
        seen.setdefault((kt, ticks[i]), []).append(i)
    positions = sorted(p for ps in seen.values() if len(ps) > 1 for p in ps)
    rows = [{name: col.values[i] for name, col in columns.items()} for i in positions]
    return DuplicateReport(index=index, key=key, rows=rows, positions=positions)


# Other modules call this as ``table.build``, looked up at call time, so a
# wrapper installed on this module (tracing, spies in tests) sees every build.
def build(
    raw,
    index: str,
    key: Sequence[str] = (),
    regular: bool = True,
    adapter: str | IndexAdapter | None = None,
) -> TemporalTable:
    """Construct a valid temporal table from raw column data.

    ``raw`` maps column names to equal-length value lists or
    :class:`Column` entries (an existing table is also accepted).  Cells
    may be int, float, str, bool, TimePoint or None.  A :class:`Column`
    keeps its declared kind, checked against its cells; a plain list gets
    the kind of its cells ("text" when none is present).  Raises
    :class:`DuplicateIndexError` when (key, index) pairs are not unique,
    :class:`MissingIndexError` for missing index values, and
    :class:`SchemaError` for NaN in a key column.
    Row content is preserved exactly; only the row order changes.
    ``adapter`` (an :class:`IndexAdapter` or a registered name) fixes the
    index kind; by default the index values decide.

    The rows are sorted and checked for repeated (key, index) pairs on one
    int per row, their row keys (see the module docstring), made here and
    not kept; the series ends they give are kept.  A repeated row key is
    reported from a scan of the cells in source order, and the interval is
    the GCD of the tick differences within each series.
    """
    columns, key, adapter, ticks = _prepare(
        raw, index, key, adapter, allow_missing_index=False
    )
    row_keys = _row_keys(columns, key, ticks)
    # Each row key maps to its last row; a shorter map means a repeated
    # (key, index) pair, which the scan in source order then reports.
    rows_of = dict(zip(row_keys, range(len(row_keys))))
    if len(rows_of) < len(row_keys):
        report = _scan_duplicates(columns, index, key, ticks)
        first_kt = tuple(columns[k].values[report.positions[0]] for k in key)
        raise DuplicateIndexError(
            f"{len(report)} rows share a (key, index) pair; first duplicate: "
            f"key={first_kt!r} index={adapter.render(columns[index].values[report.positions[0]])}",
            report,
        )
    unsorted = TemporalTable(
        columns, index, key, Interval.unknown(), regular, adapter, _ticks=ticks
    )
    t = _sorted_rows(unsorted, rows_of)
    return replace(t, interval=_infer_for(t._ends, t.ticks(), adapter, regular))


def _infer_for(ends, sorted_ticks, adapter, regular) -> Interval:
    tick_groups = [sorted_ticks[a:b] for a, b in zip([0, *ends], ends)]
    return infer_from_ticks(tick_groups, adapter.granularity, regular, adapter.unit_label)


def _contiguous_groups(columns, key, nrows) -> list[tuple[tuple, range]]:
    """(key tuple, row range) per run of equal key tuples; each run is keyed
    by its last row's cells.  The oracle for the stored series ends."""
    if not nrows:
        return []
    if not key:
        return [((), range(nrows))]
    kts = list(zip(*(columns[k].values for k in key)))
    stops = list(compress(range(1, nrows), map(operator.ne, kts[1:], kts)))
    stops.append(nrows)
    starts = [0, *stops[:-1]]
    return [(kts[b - 1], range(a, b)) for a, b in zip(starts, stops)]


def duplicates(
    raw, index: str, key: Sequence[str] = (), adapter: str | IndexAdapter | None = None
) -> DuplicateReport:
    """All rows participating in a duplicated (key, index) pair, in source order.

    The report is empty exactly when :func:`build` would succeed with the
    same arguments (missing index values aside, which build rejects outright).
    """
    columns, key, _, ticks = _prepare(
        raw, index, key, adapter, allow_missing_index=True
    )
    ticks = [("missing",) if tk is None else tk for tk in ticks]
    return _scan_duplicates(columns, index, key, ticks)


def key_groups(t: TemporalTable) -> list[tuple[tuple, range]]:
    """One (key tuple, row range) entry per series, in sorted key order."""
    key_columns = [t.columns[k].values for k in t.key]
    return [
        (tuple(values[b - 1] for values in key_columns), range(a, b))
        for a, b in zip([0, *t._ends], t._ends)
    ]


# --- trusted constructors for the verb layer -------------------------------
#
# Each reruns only the checks its caller can break; every other field it
# carries over from ``t``.


def rows_at(t: TemporalTable, rows: Sequence[int]) -> TemporalTable:
    """``t`` with its rows at positions ``rows``, in that order.

    The one place rows move: column cells and index ticks are taken
    together, and every other field carries over as it is, column kinds and
    grouping included.  The series ends are cleared; the callers,
    :func:`build`, :func:`take` and ``gaps.fill_gaps``, re-derive them.
    """
    ticks = t.ticks()
    columns = {
        name: Column(col.kind, [col.values[i] for i in rows]) for name, col in t.columns.items()
    }
    return replace(t, columns=columns, _ticks=[ticks[i] for i in rows], _ends=None)


def take(t: TemporalTable, rows: Sequence[int]) -> TemporalTable:
    """The rows at ascending positions ``rows`` of ``t``.

    A subset keeps the order and uniqueness of ``t``, its index adapter
    (also when empty), its grouping and the kind of every column: a kind
    is declared by the code that made the column, not re-read from the
    cells a subset happens to keep.  A series ends where the kept rows
    before its old end do, and a series left with no row is dropped.  The
    interval is re-inferred on the subset.
    """
    out = rows_at(t, rows)
    cut = [bisect_left(rows, end) for end in t._ends]
    ends = [b for a, b in zip([0, *cut], cut) if b > a]
    interval = _infer_for(ends, out.ticks(), t.adapter, t.declared_regular)
    return replace(out, interval=interval, _ends=ends)


def with_columns(t: TemporalTable, columns: Mapping[str, Column | list]) -> TemporalTable:
    """``t`` with the same rows, index and key but the columns ``columns``.

    ``columns`` is the full, ordered column mapping of the result and must
    hold the index and key columns of ``t`` unchanged.  :class:`Column`
    entries are taken as they are, kind unchecked: the caller declares it.
    Plain value lists are new or overwritten columns from outside the
    library and get the kind of their cells.  Every other field of ``t``
    carries over (interval, ticks, adapter, grouping).
    """
    cols = {
        name: col if isinstance(col, Column) else _typed_column(name, col)
        for name, col in columns.items()
    }
    return replace(t, columns=cols)


def validate_table(t: TemporalTable) -> None:
    """Assert the full construction contract on an existing table.

    Checks column lengths and declared kinds, the stored ticks against
    the index cells, (key, index) uniqueness, canonical ordering, the
    grouping columns, the stored series ends against the runs of equal key
    cells, and that the stored interval matches re-inference.
    Raises ValidityError or SchemaError on failure.
    """
    n = t.nrows
    for name, col in t.columns.items():
        if len(col) != n:
            raise SchemaError(f"column {name!r} has length {len(col)}, expected {n}")
        if name == t.index:
            if col.kind != t.adapter.cell_kind:
                raise SchemaError(
                    f"index column {name!r} kind {col.kind!r} does not match "
                    f"its adapter ({t.adapter.cell_kind!r})"
                )
            continue
        _typed_column(name, col)  # the declared kind must hold the cells
    if t.index not in t.columns:
        raise SchemaError(f"index column {t.index!r} missing")
    if t.index in t.key:
        raise SchemaError("index column duplicated in key")
    ticks = t.ticks()
    cell_ticks = list(map(t.adapter.to_ticks, t.columns[t.index].values))
    if ticks != cell_ticks:
        ticks = ticks or ()
        row = next(compress(count(), map(operator.ne, ticks, cell_ticks)), min(len(ticks), n))
        raise ValidityError(f"stored ticks differ from the index cells' from row {row}")
    # Sorted rows hold each (key, index) pair once exactly when no two
    # neighbours share one.
    keys = _sort_keys(t.columns, t.key, ticks)
    if any(map(operator.lt, keys[1:], keys)):
        raise ValidityError("rows are not sorted by (key, index)")
    row = next(compress(count(1), map(operator.eq, keys[1:], keys)), None)
    if row is not None:
        raise ValidityError(f"duplicate (key, index) pair {(t.key_tuple(row), ticks[row])!r}")
    if t.groups is not None:
        for c in t.groups.by:
            if c not in t.columns:
                raise SchemaError(f"grouping column {c!r} missing")
    runs = [r.stop for _, r in _contiguous_groups(t.columns, t.key, n)]
    if t._ends != runs:
        raise ValidityError("stored series ends do not match the runs of equal key cells")
    expected = _infer_for(runs, ticks, t.adapter, t.declared_regular)
    if t.interval != expected:
        raise ValidityError(f"stored interval {t.interval} does not match re-inference {expected}")
