"""Temporal tables: columnar data plus index, key and interval semantics.

A table is built from plain column data: :func:`build` types the cells,
``resolve_index`` converting and checking each index cell once, and
:func:`resort` checks that the (key, index) pairs uniquely identify rows,
sorts everything past-to-future within each key, and infers the interval.
Columns keep their original values untouched; the engine works on a
parallel vector of integer ticks derived from the index column.  The row
order is one argsort of the row keys below.  Rows move by one getter per
move, :func:`cells_at`, an ``operator.itemgetter`` that takes the cells of
every column and the ticks in C; :func:`place_rows`, where ``resort``,
``take`` and ``gaps.fill_gaps`` end, applies it and infers the interval.

Sorting works on one int per row, its row key, made afresh by each sort
and never stored.  Each key column is dictionary-encoded: its distinct
cells get codes in ``_sort_cell`` order (missing last), and equal cells
(``1`` and ``1.0``, ``0.0`` and ``-0.0``) share a code.  The codes and the
tick are read as digits of one mixed-radix number whose last digit spans
the table's ticks, so row keys order rows as the ``(key cells..., tick)``
tuples of ``_sort_keys`` do, and two rows share a row key exactly when
they share a (key, index) pair.

The series the sorted row keys give are stored: a series ends where its
key code, the row key less its tick digit, changes.  The table keeps those
end offsets (``_ends``), a run-end encoding of its key columns that ``take``
and ``key_groups`` read in place of the key cells.  ``validate_table``
keeps to the tuples and to runs of equal key cells, so it checks the row
keys and the stored ends rather than trusting them.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cache
from itertools import compress, count, repeat

from .adapters import IndexAdapter, one_granularity, resolve_index
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

class Column(Record):
    __slots__ = ("kind", "values")

    def __init__(self, kind: str | None, values: list):
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


def cell_kind(v, what: str | None = None) -> str | None:
    """The kind of cell ``v``; SchemaError, naming ``what``, for a cell of none."""
    for tp, kind in _KIND_OF_TYPE.items():
        if isinstance(v, tp):
            return kind
    held = f"{what} holds " if what else ""
    raise SchemaError(f"{held}unsupported cell value {v!r} of type {type(v).__name__}")


def common_kind(kinds, what: str = "column") -> str | None:
    """The kind of a column holding cells of ``kinds``: int and real make
    real, and kind None, a missing cell or a column with no present cell,
    fits any kind.  None when no other kind is given; any other mix
    raises, naming ``what``.

    >>> common_kind(["int", None, "real"])
    'real'
    >>> common_kind([None, None]) is None
    True
    """
    kinds = set(kinds) - {None}
    if len(kinds) > 1 and kinds != {"int", "real"}:
        raise SchemaError(f"{what} mixes cell kinds: {sorted(kinds, key=str)}")
    return "real" if len(kinds) > 1 else next(iter(kinds), None)


def as_kind(v, kind: str | None):
    """Cell ``v`` as a cell of a ``kind`` column: an int widens to float in a
    real column, and a column of kind None takes any cell.  Raises
    SchemaError when ``v`` is no such cell."""
    got = cell_kind(v)
    if kind is None or got == kind:
        return v
    if kind == "real" and got == "int":
        return float(v)
    raise SchemaError(f"{v!r} ({got}) does not fit kind {kind!r}")


def infer_kind(values: Sequence, what: str = "column") -> str | None:
    """Column kind from its values: the common kind of its present cells,
    None when no cell is present.  A mix is refused, naming ``what``."""
    types = set(map(type, values))
    if types.issubset(_KIND_OF_TYPE):
        return common_kind(map(_KIND_OF_TYPE.get, types), what)
    # Subclasses and unsupported cells: classify cell by cell, which raises
    # for the first unsupported cell in column order.
    return common_kind((cell_kind(v, what) for v in values), what)


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
            parts.append(list(map(_sort_cell, col.values)))
        else:
            parts.append(col.values)
    return list(zip(*parts, ticks))


def _row_keys(columns, key, ticks) -> tuple[list[int] | None, list[int]]:
    """Per row, its key code and its row key: the key columns' codes, and
    then the tick, as digits of one mixed-radix number whose last digit
    spans the table's ticks.  Without a key column the codes are None.

    A key column's codes follow ``_sort_cell`` order, with missing cells
    last, and cells that compare equal share a code.  Each code is made
    already multiplied by the weight of its digit.
    """
    weight = max(ticks, default=0) - min(ticks, default=0) + 1
    codes = None
    for k in reversed(key):
        values = columns[k].values
        if columns[k].kind == "time":
            # A time column has one granularity, so ticks order its cells.
            values = [None if v is None else v.ticks for v in values]
        levels = set(values)
        levels.discard(None)
        code = dict(zip(sorted(levels), range(0, weight * len(levels), weight)))
        code[None] = weight * len(levels)
        digit = map(code.__getitem__, values)
        codes = list(digit if codes is None else map(operator.add, digit, codes))
        weight *= len(levels) + 1
    return codes, ticks if codes is None else list(map(operator.add, codes, ticks))


def _run_ends(sorted_codes: list[int] | None, nrows: int) -> list[int]:
    """Exclusive end offset of each series in rows sorted on their row
    keys, given their key codes: a series ends where the code changes."""
    changes = () if sorted_codes is None else compress(
        count(1), map(operator.ne, sorted_codes, sorted_codes[1:]))
    return [*changes, nrows] if nrows else []


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
    :func:`build`, moved row-wise by :func:`rows_at`, put in order by
    :func:`resort`, and otherwise derived with :func:`replace`, so every
    field in ``__slots__`` travels with the table unless a verb changes it.

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
        adapter: IndexAdapter,
        groups: Grouping | None = None,
        _ticks: list[int] | None = None,
        _ends: list[int] | None = None,
    ):
        self.columns = columns
        self.index = index
        self.key = key
        self.interval = interval
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
    def declared_regular(self) -> bool:
        """Whether the spacing is declared regular: an irregular interval is
        only ever declared, never inferred, so the interval records it."""
        return self.interval.form != "irregular"

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
    def schema(self) -> list[tuple[str, str | None]]:
        return [(name, col.kind) for name, col in self.columns.items()]

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise SchemaError(f"no column named {name!r}")
        return self.columns[name].values

    def kind_of(self, name: str) -> str | None:
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
    """One ``{name: cell}`` dict per row of the equal-length ``columns``,
    keys in the order of ``names``.

    Each row is one dict display made by a function compiled once per
    width (``_row_maker``), with ``names`` bound as its keys.  Every call
    returns new dicts, so a caller may change one without touching the
    columns or any other row.

    >>> list(row_dicts(["t", "v"], [[1, 2], ["a", "b"]]))
    [{'t': 1, 'v': 'a'}, {'t': 2, 'v': 'b'}]
    """
    if not names:
        return iter(())
    return map(_row_maker(len(names))(*names), *columns)


@cache
def _row_maker(width: int):
    """``maker(k0, ..., kn)``, which returns ``lambda v0, ..., vn: {k0: v0,
    ..., kn: vn}``, for ``width`` = n + 1 columns.

    The source holds only generated identifiers and the names arrive as
    arguments, so no column name is ever read as code (``namedtuple``
    compiles its classes the same way).  Compiling costs far more than a
    row, hence the cache; it is keyed by width alone, so it stays small.
    """
    keys = [f"k{i}" for i in range(width)]
    cells = [f"v{i}" for i in range(width)]
    pairs = ", ".join(f"{k}: {v}" for k, v in zip(keys, cells))
    source = f"def maker({', '.join(keys)}):\n    return lambda {', '.join(cells)}: {{{pairs}}}\n"
    namespace = {"__builtins__": {}}
    exec(source, namespace)
    return namespace["maker"]


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


def _prepare(raw, index: str, key: Sequence[str], adapter: str | IndexAdapter | None):
    # The typed columns, the key, and the index adapter with one tick per
    # row: None for a missing index cell, which only build refuses.
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
    adapter, ticks = resolve_index(index, idx_values, adapter)

    columns: dict[str, Column] = {}
    for name, col in data.items():
        if name == index:
            # Index cells may be adapter values; the adapter vouches for them.
            columns[name] = Column(adapter.cell_kind, idx_values)
        else:
            columns[name] = _typed_column(name, col)
    return columns, key, adapter, ticks


def _typed_column(name: str, col: Column | list) -> Column:
    """A non-index column: a :class:`Column` keeps its declared kind, which
    must hold its cells; plain values get the kind of their cells, None
    when no cell is present."""
    actual = infer_kind(getattr(col, "values", col), f"column {name!r}")
    if isinstance(col, Column):
        try:
            fits = common_kind((col.kind, actual)) == col.kind
        except SchemaError:
            fits = False
        if not fits:
            raise SchemaError(f"column {name!r} of kind {col.kind!r} holds {actual} cells")
    else:
        col = Column(actual, col)
    if col.kind == "time":
        one_granularity(f"time column {name!r}", (v for v in col.values if v is not None))
    return col


def _key_notes(columns: dict[str, Column], key: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(
        f"key column {name!r} is entirely missing; treated as one level"
        for name, col in columns.items()
        if name in key and col.values and col.values.count(None) == len(col.values)
    )


def _refuse_nan_keys(columns, key) -> None:
    """Raise SchemaError for the first NaN cell of the first key column
    holding one: NaN equals nothing, itself included, so it can neither
    sort nor tell series apart."""
    for k in key:
        if columns[k].kind == "real":
            values = columns[k].values
            pos = next(compress(count(), map(operator.ne, values, values)), None)
            if pos is not None:
                raise SchemaError(f"key column {k!r} holds NaN at row {pos}")


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
    the kind of its cells, None when none is present.  Raises
    :class:`DuplicateIndexError` when (key, index) pairs are not unique,
    :class:`MissingIndexError` for missing index values, and
    :class:`SchemaError` for NaN in a key column.
    Row content is preserved exactly; only the row order changes.
    ``adapter`` (an :class:`IndexAdapter` or a registered name) fixes the
    index kind; by default the index values decide.  ``_prepare`` types
    every cell, so a cell of the wrong kind is reported before a missing
    index cell, and :func:`resort` checks and orders the typed rows.
    """
    columns, key, adapter, ticks = _prepare(raw, index, key, adapter)
    if None in ticks:
        raise MissingIndexError(
            f"index column {index!r} has a missing value at row {ticks.index(None)}"
        )
    seed = Interval.unknown() if regular else Interval.irregular()
    return resort(TemporalTable(columns, index, key, seed, adapter, _ticks=ticks))


def _infer_for(t: TemporalTable, ends, sorted_ticks) -> Interval:
    """The interval of ``t``'s index when its series end at ``ends`` and its
    ticks are ``sorted_ticks``; a declared irregular interval is kept."""
    if not t.declared_regular:
        return t.interval
    return infer_from_ticks(sorted_ticks, ends, t.adapter.granularity, t.adapter.unit_label)


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
    same arguments (missing index values aside, which build rejects
    outright), and it raises the SchemaError build would for the same cells.
    """
    columns, key, _, ticks = _prepare(raw, index, key, adapter)
    _refuse_nan_keys(columns, key)
    # A missing index cell's tick is None, which equals no int tick.
    return _scan_duplicates(columns, index, key, ticks)


def key_groups(t: TemporalTable) -> list[tuple[tuple, range]]:
    """One (key tuple, row range) entry per series, in sorted key order; the
    key tuples are the cells of the last rows, taken by one :func:`cells_at`."""
    ends = t._ends
    get = cells_at(list(map(operator.add, ends, repeat(-1))))
    kts = list(zip(*(get(t.columns[k].values) for k in t.key))) if t.key else [()] * len(ends)
    return list(zip(kts, map(range, [0, *ends], ends)))


# --- trusted constructors for the verb layer -------------------------------
#
# Each reruns only the checks its caller can break; every other field it
# carries over from ``t``.


def cells_at(rows: Sequence[int]):
    """A function taking the cells at positions ``rows`` of a list, as a new
    list, by one ``operator.itemgetter`` in C; below two positions, where
    ``itemgetter`` raises or returns a bare cell, by a comprehension."""
    if len(rows) > 1:
        get = operator.itemgetter(*rows)
        return lambda values: list(get(values))
    return lambda values: [values[i] for i in rows]


def rows_at(t: TemporalTable, rows: Sequence[int]) -> TemporalTable:
    """``t`` with its rows at positions ``rows``, in that order.

    Column cells and index ticks move together, by one :func:`cells_at`
    getter, as in :func:`place_rows`, and every other field carries over
    as it is, column kinds, interval and grouping included.  The series
    ends are cleared, for :func:`resort` or :func:`place_rows` to set.

    >>> t = build({"t": [1, 2, 3], "v": ["a", "b", "c"]}, "t")
    >>> rows_at(t, [2, 0, 2]).column("v"), rows_at(t, [1]).ticks(), rows_at(t, []).column("v")
    (['c', 'a', 'c'], [2], [])
    """
    return _moved(t, cells_at(rows))


def _moved(t: TemporalTable, get) -> TemporalTable:
    columns = {name: Column(col.kind, get(col.values)) for name, col in t.columns.items()}
    return replace(t, columns=columns, _ticks=get(t.ticks()), _ends=None)


def place_rows(t: TemporalTable, get, ends: list[int]) -> TemporalTable:
    """``t`` with its rows taken by ``get``, a :func:`cells_at` getter of a
    canonical order, as series ending at the exclusive offsets ``ends``, and
    its interval re-inferred (a declared irregular one is kept)."""
    out = _moved(t, get)
    return replace(out, interval=_infer_for(t, ends, out.ticks()), _ends=ends)


def resort(t: TemporalTable) -> TemporalTable:
    """``t``, its cells and ticks typed, its rows in any order, checked and
    put in canonical order: what :func:`build` does after typing.

    Raises SchemaError for NaN in a key column, and DuplicateIndexError,
    from a scan of the cells in row order, for a repeated (key, index)
    pair.  The row order is an argsort of the row keys (see the module
    docstring), and one :func:`cells_at` getter of it sorts the row keys,
    the key codes, every column and the ticks.  A series ends where the
    sorted key codes change, and the interval is re-inferred.
    """
    _refuse_nan_keys(t.columns, t.key)
    ticks = t.ticks()
    codes, row_keys = _row_keys(t.columns, t.key, ticks)
    get = cells_at(sorted(range(len(row_keys)), key=row_keys.__getitem__))
    row_keys = get(row_keys)
    # Sorted, a repeated (key, index) pair is two equal neighbouring row
    # keys, which the scan in row order then reports.
    if any(map(operator.eq, row_keys[1:], row_keys)):
        report = _scan_duplicates(t.columns, t.index, t.key, ticks)
        first = report.positions[0]
        cell = t.adapter.render(t.columns[t.index].values[first])
        raise DuplicateIndexError(
            f"{len(report)} rows share a (key, index) pair; first duplicate: "
            f"key={t.key_tuple(first)!r} index={cell}",
            report,
        )
    return place_rows(t, get, _run_ends(None if codes is None else get(codes), len(row_keys)))


def take(t: TemporalTable, rows: Sequence[int]) -> TemporalTable:
    """The rows at ascending positions ``rows`` of ``t``.

    A subset keeps the order and uniqueness of ``t``, its index adapter
    (also when empty), its grouping and the kind of every column: a kind
    is declared by the code that made the column, not re-read from the
    cells a subset happens to keep.  A series ends where the kept rows
    before its old end do, and a series left with no row is dropped.  The
    interval is re-inferred on the subset.
    """
    cut = list(map(bisect_left, repeat(rows), t._ends))
    return place_rows(t, cells_at(rows), list(compress(cut, map(operator.gt, cut, [0, *cut]))))


def with_columns(t: TemporalTable, columns: Mapping[str, Column | list]) -> TemporalTable:
    """``t`` with the same rows, index and key but the columns ``columns``.

    ``columns`` is the full, ordered column mapping of the result and must
    hold the index and key columns of ``t``, unchanged unless the caller
    passes the result to :func:`resort`.  :class:`Column`
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
    expected = _infer_for(t, runs, ticks)
    if t.interval != expected:
        raise ValidityError(f"stored interval {t.interval} does not match re-inference {expected}")
