"""Table verbs that keep the temporal contract intact.

Every verb takes a valid table and either returns a valid table (wrapped in
a :class:`VerbOutcome` with any diagnostics) or raises an engine error.  Each
verb reruns only the construction checks its change can break, through one
of four constructors:

* :func:`~temporaltable.table.take` keeps a subset of rows: ``filter``,
  ``filter_index``, semi/anti ``join`` and inner ``join`` without fan-out.
  Order and uniqueness hold, so only the series ends are cut and the
  interval is re-inferred.
* :func:`~temporaltable.table.with_columns` keeps the rows: ``mutate`` and
  ``transmute`` of non-key, non-index columns, ``select`` keeping every
  key column, and left/inner ``join`` where each left row matches at most
  one right row (inner on the rows ``take`` keeps).  Only new columns get
  kinds; interval, ticks and index adapter carry over.
* :func:`~temporaltable.table.resort` orders rows whose cells are already
  typed under a new key or in a new order: ``select`` dropping a key
  column, ``mutate``/``transmute`` of a key column, and ``gather``,
  ``spread``, ``summarize`` and fan-out joins, which pick their rows with
  :func:`~temporaltable.table.rows_at`.  It refuses NaN in a key, checks
  uniqueness, sorts and re-infers the interval; kinds, ticks and index
  adapter carry over, and no cell is typed again.
* :func:`~temporaltable.table.build` types cells from outside the table,
  new index cells among them, then does what ``resort`` does:
  ``mutate``/``transmute`` of the index, and right/full joins.

Every column a verb carries keeps its kind, and ``summarize`` declares
:func:`~temporaltable.aggregates.result_kind` for each aggregate.  Only
cells from outside the library get the kind of their values: new columns
of ``mutate``/``transmute`` and the right-hand table of a ``join``, typed
whole before any row is picked.

Results keep the table's index adapter, even one since unregistered or
replaced.  Only new index cells resolve theirs from the values: ``mutate`` or
``transmute`` of the index, right/full ``join``, and ``summarize`` over an
``index_by`` grouping to another granularity or through a callable.

A grouping keeps what ``group_by`` and ``index_by`` were given: column
names, and the granularity or callable that ``summarize`` applies to the
index cells it finds.  Every verb that returns a :class:`VerbOutcome`
returns through one exit, ``_outcome``, with one rule: a grouping column
is kept while the result has it, and an ``index_by`` rule while the
result keeps the index column and reads it through an adapter of the same
kind, granularity and zone, new index cells included.  ``_outcome`` warns
naming what it drops, and whenever the interval changes.  ``select`` and
``transmute`` keep grouping columns the way ``select`` keeps the index.
``summarize`` returns an ungrouped table.

Every table is in canonical order, so ``arrange`` returns no table: it
lists the rows, as dicts, in the order asked for, for presentation.

:func:`~temporaltable.table.validate_table` re-derives the whole contract
from scratch and stays the oracle the test suite checks every result
against.

Predicates and derivation functions receive one row as a plain dict, a new
one per row.  They must be pure; grouped aggregation may evaluate groups in
any order.  A ``KeyError(name)`` they raise, ``name`` a str naming no column
of the table, is reported as a ``SchemaError`` naming the unknown column;
any other ``KeyError`` propagates as raised.  Loops that call such code stay
comprehensions (see ``_reading_rows``); loops over the library's own cells
use C iterators: masks through ``compress``, row moves through ``cells_at``.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import chain, compress, count

from . import aggregates, table
from .adapters import IndexAdapter, one_granularity, resolve_index
from .errors import (
    ConversionError,
    MissingIndexError,
    ParseError,
    PreconditionError,
    SchemaError,
    ValidityError,
)
from .granularity import Granularity, coarser_or_equal
from .ingest import render_cell
from .record import Frozen, set_field
from .table import (
    Column,
    Grouping,
    TemporalTable,
    _sort_cell,
    replace,
    take,
    with_columns,
)
from .timepoint import (
    _is_utc,
    _read_json_int,
    _require_granularity,
    floor_to,
    guess_granularity,
    parse_timepoint,
)


class VerbOutcome(Frozen):
    """A verb result: the table plus any warnings raised along the way."""

    __slots__ = ("table", "warnings")

    def __init__(self, table: TemporalTable, warnings: tuple[str, ...] = ()):
        set_field(self, "table", table)
        set_field(self, "warnings", warnings)

    def __iter__(self):
        return iter((self.table, self.warnings))


def _names(names) -> list:
    """Column names given as an iterable of names; one bare name is a str."""
    return [names] if isinstance(names, str) else list(names)


@contextmanager
def _reading_rows(what: str, columns):
    """Report a ``KeyError`` raised while ``what`` reads rows with the
    names ``columns`` as a ``SchemaError`` naming the unknown column, when
    its key is a str naming none of them; any other ``KeyError``, such as a
    lookup in the caller's own mapping, propagates as raised.

    Callers loop over the rows with a comprehension that calls the row
    code directly: ``map`` would take a ``StopIteration`` the code raises
    as the end of the rows and return too few results.  Loops that call
    no user code, over the library's own cells, use C iterators instead."""
    try:
        yield
    except KeyError as exc:
        # Column names are always str, so no other key can name one.
        name = exc.args[0] if exc.args else None
        if not isinstance(name, str) or name in columns:
            raise
        raise SchemaError(f"{what} references unknown column {name!r}") from exc


# --- row verbs --------------------------------------------------------------


def _outcome(t: TemporalTable, out: TemporalTable, warnings: tuple = ()) -> VerbOutcome:
    """``out``, which a verb made from ``t``, with what survives of the
    grouping of ``t``, a warning naming what does not, and a warning when
    the interval changed.

    A grouping column survives when ``out`` has it.  An ``index_by`` rule
    survives when ``out`` keeps the index column and reads it through an
    adapter of the same kind, granularity and zone, None and any case of
    "UTC" being one zone (``build`` resolves a new adapter for new index
    cells): the rule then reads the same kind of cell.
    """
    groups = t.groups
    if groups is not None:
        lost = [c for c in groups.by if c not in out.columns]
        if lost:
            warnings += (f"grouping columns {lost} dropped",)
            groups = replace(groups, by=tuple(c for c in groups.by if c in out.columns))
        same = lambda ad: (type(ad), ad.granularity, None if _is_utc(ad.zone) else ad.zone)
        if groups.index_name is not None and (
            out.index != t.index or same(out.adapter) != same(t.adapter)
        ):
            warnings += (f"index_by grouping {groups.index_name!r} dropped",)
            groups = replace(groups, index_name=None, index_rule=None)
        out = replace(out, groups=groups)
    if out.interval != t.interval:
        warnings += (f"interval changed from {t.interval} to {out.interval}",)
    return VerbOutcome(out, warnings)


def filter(t: TemporalTable, predicate) -> VerbOutcome:
    """Keep rows where the predicate holds; interval is re-inferred."""
    with _reading_rows("predicate", t.columns):
        keep = [i for i, row in enumerate(t.rows()) if predicate(row)]
    return _outcome(t, take(t, keep))


def filter_index(t: TemporalTable, expr: str) -> VerbOutcome:
    """Keep the rows in the time window ``expr``: one point (``"2011"``),
    two (``"2011-03 ~ 2011-09"``) or one open side (``"~ 2012"``).

    Each endpoint is read at the index's granularity when its text is one
    such point (an index cell's rendering selects that cell), and otherwise
    at the granularity its text shows, which may be coarser than the index
    but not finer.  A row is kept when the period
    holding it, floored as ``index_by`` floors it, lies in the window.  On
    an ordinal index the endpoints are JSON ints.

    >>> from temporaltable import build, timepoint as tp
    >>> t = build({"d": [tp.day(2011, m, 1) for m in range(1, 13)], "v": list(range(12))}, "d")
    >>> filter_index(t, "2011 Q3").table.column("v")
    [6, 7, 8]
    >>> filter_index(t, "2011-11 ~").table.column("v")
    [10, 11]
    >>> filter_index(t, "2011-01-05 12:00")
    Traceback (most recent call last):
    ...
    temporaltable.errors.PreconditionError: a minute window is finer than the day index
    """
    sides = [side.strip() for side in expr.split("~")]
    if len(sides) > 2:
        raise ParseError(f"too many '~' in time window {expr!r}")
    if not any(sides):
        raise ParseError(f"time window {expr!r} has no endpoints")
    ticks = sorted(set(t.ticks()))
    start = _window_edge(t, sides[0], ticks, bisect_left) if sides[0] else 0
    stop = _window_edge(t, sides[-1], ticks, bisect_right) if sides[-1] else len(ticks)
    window = set(ticks[start:stop])
    return _outcome(t, take(t, list(compress(count(), map(window.__contains__, t.ticks())))))


def _window_edge(t: TemporalTable, text: str, ticks: list[int], side) -> int:
    """Where the endpoint ``text`` cuts the sorted distinct ``ticks``:
    ``side`` is ``bisect_left`` for a lower end, ``bisect_right`` for an
    upper one.  Flooring is monotone in the tick, so the floored ticks are
    sorted too."""
    g = t.adapter.granularity
    if g is None:
        raise ParseError("cannot filter the index of an empty table by time")
    if g is Granularity.ORDINAL:
        # Any ordinal index, plain ints or an adapter's, reads JSON ints.
        return side(ticks, _read_json_int(text))
    try:
        # The index's own text, hours included, which are never guessed.
        point_g, point = g, parse_timepoint(text, g, t.adapter.zone)
    except ParseError:
        point_g = guess_granularity(text)
        if point_g is None:
            raise ParseError(f"cannot read {text!r} as a time point") from None
        point = parse_timepoint(text, point_g, t.adapter.zone)
    if not coarser_or_equal(point_g, g):
        raise PreconditionError(f"a {point_g.value} window is finer than the {g.value} index")
    from_ticks = t.adapter.from_ticks
    return side(ticks, point.ticks, key=lambda tick: floor_to(from_ticks(tick), point_g).ticks)


def arrange(t: TemporalTable, spec) -> list[dict]:
    """The rows of ``t`` as dicts, sorted for presentation; ``t`` is unchanged.

    ``spec`` lists column names, each optionally as (name, "desc"); the
    first name sorts first, and ties keep the table's canonical order.
    Ascending, NaN sorts after every number and missing cells last;
    descending reverses that.  The index sorts by its ticks, the order its
    adapter defines, so its cells need no ``<`` of their own.
    """
    norm = []
    for item in _names(spec):
        name, direction = (item, "asc") if isinstance(item, str) else item
        if direction not in ("asc", "desc"):
            raise PreconditionError(f"sort direction must be asc or desc, got {direction!r}")
        keys = t.ticks() if name == t.index else list(map(_sort_cell, t.column(name)))
        norm.append((keys, direction))

    order = list(range(t.nrows))
    for keys, direction in reversed(norm):
        order.sort(key=keys.__getitem__, reverse=(direction == "desc"))
    return list(map(list(t.rows()).__getitem__, order))


# --- column verbs -----------------------------------------------------------


def select(t: TemporalTable, names) -> VerbOutcome:
    """Keep the named columns, preserving temporal semantics.

    Grouping columns left out are retained implicitly (with a warning), and
    so is the index when left out of a selection that keeps every key
    column.  Key columns may be dropped as long as the remaining key still
    identifies rows uniquely.
    """
    names = list(dict.fromkeys(_names(names)))
    data = {name: Column(t.kind_of(name), t.column(name)) for name in names}
    warnings = ()
    dropped_groups = [c for c in (t.groups.by if t.groups else ()) if c not in data]
    if dropped_groups:
        data.update((c, t.columns[c]) for c in dropped_groups)
        warnings = (f"grouping columns {dropped_groups} retained implicitly",)
    if t.index not in data:
        if all(k in data for k in t.key):
            data[t.index] = t.columns[t.index]
            warnings += (f"index column {t.index!r} retained implicitly",)
        else:
            raise SchemaError(
                f"selection removes the index column {t.index!r}; include it, "
                "or summarize/transmute to reshape the table"
            )
    new_key = tuple(k for k in t.key if k in data)
    out = with_columns(t, data)
    if new_key != t.key:
        out = table.resort(replace(out, key=new_key))
    return _outcome(t, out, warnings)


def _evaluate(t_data: dict[str, list], nrows: int, expr, name: str) -> list:
    if callable(expr):
        with _reading_rows(f"column {name!r}", t_data):
            return [expr(row) for row in table.row_dicts(list(t_data), t_data.values())]
    if isinstance(expr, (list, tuple)):
        if len(expr) != nrows:
            raise PreconditionError(
                f"column {name!r}: {len(expr)} values for {nrows} rows"
            )
        return list(expr)
    return [expr] * nrows


def _derive(t: TemporalTable, exprs: dict, keep: list[str]) -> VerbOutcome:
    """Evaluate ``exprs`` in order over ``t`` and keep ``keep``.

    New index cells go through build, which resolves their adapter; new
    key cells re-validate uniqueness and ordering through resort.  Results
    get the kinds of their cells; the columns carried over keep theirs.
    """
    data = {name: col.values for name, col in t.columns.items()}
    n = t.nrows
    for name, expr in exprs.items():
        data[name] = _evaluate(data, n, expr, name)
    cols = {c: data[c] if c in exprs else t.columns[c] for c in keep}
    if t.index in exprs:
        out = table.build(cols, t.index, t.key, t.declared_regular)
    else:
        out = with_columns(t, cols)
        if any(k in exprs for k in t.key):
            out = table.resort(out)
    return _outcome(t, out)


def mutate(t: TemporalTable, /, **exprs) -> VerbOutcome:
    """Add or overwrite columns; each expression sees earlier results.

    An expression is a callable over the row dict, a full-length list of
    values, or a constant broadcast to every row.  Overwriting the index or
    a key column re-validates uniqueness and ordering.
    """
    return _derive(t, exprs, list(dict.fromkeys([*t.columns, *exprs])))


def transmute(t: TemporalTable, /, **exprs) -> VerbOutcome:
    """Like mutate, but keep only key, index, grouping columns and the
    named results."""
    by = t.groups.by if t.groups else ()
    keep = list(dict.fromkeys([*t.key, t.index, *by, *exprs]))
    return _derive(t, exprs, keep)


# --- grouping verbs ---------------------------------------------------------


def group_by(t: TemporalTable, *columns) -> TemporalTable:
    """Attach grouping columns; data is untouched until summarize."""
    cols = list(dict.fromkeys(columns))
    for c in cols:
        t.column(c)  # refuses an unknown column
        if c == t.index:
            raise SchemaError(f"cannot group by the index column {c!r}; use index_by")
    base = t.groups or Grouping()
    return replace(t, groups=replace(base, by=tuple(cols)))


def group_by_key(t: TemporalTable) -> TemporalTable:
    """Group by every key column."""
    return group_by(t, *t.key)


def _derived_index(t: TemporalTable, rule, name: str) -> tuple[list, list[int], IndexAdapter]:
    """The index cells that ``index_by`` rule ``rule`` derives from ``t``
    and their ticks, one per row, and their adapter, resolved from the
    distinct cells.

    ``rule`` is a :class:`Granularity` (floor each index cell to it) or a
    callable; each distinct tick's cell is derived, and converted to its
    tick, once.  Raises
    ConversionError between an ordinal and a calendar index,
    MissingIndexError for a missing derived cell, and PreconditionError for
    a mapping that is not order-preserving.
    """
    values = t.columns[t.index].values
    if isinstance(rule, Granularity):
        src = t.adapter.granularity
        if src is not None and Granularity.ORDINAL in (rule, src) and rule is not src:
            raise ConversionError(
                f"cannot derive a {rule.value} index from a {src.value} index"
            )
        if rule is src or rule is Granularity.ORDINAL:
            # An unchanged index keeps its cells, and so its adapter.
            return values, t.ticks(), t.adapter
        fn = lambda v: floor_to(v, rule)
    else:
        fn = rule
    ticks = t.ticks()
    # Each distinct tick's first cell: read backwards, the earliest is written last.
    first = dict(zip(reversed(ticks), reversed(values)))
    cells = {}
    for tk in dict.fromkeys(ticks):
        cells[tk] = fn(first[tk])
        if cells[tk] is None:
            raise MissingIndexError(
                f"index_by maps {t.index!r} cell {t.adapter.render(first[tk])} to a missing value"
            )
    adapter, derived_ticks = resolve_index(name, list(cells.values()))
    tick_of = dict(zip(cells, derived_ticks))
    in_order = list(map(tick_of.__getitem__, sorted(cells)))
    if any(map(operator.lt, in_order[1:], in_order)):
        raise PreconditionError("index mapping is not order-preserving")
    return list(map(cells.__getitem__, ticks)), list(map(tick_of.__getitem__, ticks)), adapter


def index_by(t: TemporalTable, spec, name: str | None = None) -> TemporalTable:
    """Group by a coarser derived index.

    ``spec`` is a target granularity (floor each index value to it) or a
    callable mapping index values to new index values.  The mapping must be
    order-preserving; summarize then uses the derived column as the index.
    The grouping keeps ``spec`` itself, which ``summarize`` applies to the
    index cells it finds.
    """
    if callable(spec) and not isinstance(spec, Granularity):
        default_name = getattr(spec, "__name__", "")
        if not default_name or default_name == "<lambda>":
            default_name = f"{t.index}_by"
    else:
        spec = _require_granularity(spec)
        default_name = spec.value
    name = name or default_name
    _derived_index(t, spec, name)  # refuses a bad mapping here, not in summarize
    base = t.groups or Grouping()
    return replace(t, groups=replace(base, index_name=name, index_rule=spec))


def summarize(t: TemporalTable, /, **aggs) -> TemporalTable:
    """Aggregate values over time: one row per (group, index) combination.

    Each keyword maps an output column to a ``(spec, column)`` pair, with
    spec from the fixed vocabulary (sum, mean, min, max, count, quantile:p).
    The result's key is the grouping columns; without group_by the key
    columns are dropped and the table collapses to one series.  Each
    aggregate column has the kind :func:`~temporaltable.aggregates.result_kind`
    declares for its spec and input column, whatever cells it holds.  An
    output may not take the name of a grouping column or of the result's
    index, and neither may a grouping column.
    """
    grouping = t.groups or Grouping()
    idx_name = grouping.index_name or t.index
    by = grouping.by
    if idx_name in by:
        raise SchemaError(f"grouping column {idx_name!r} clashes with the result's index")
    kinds = {}
    for out_name, (spec, col) in aggs.items():
        agg = aggregates.parse_spec(spec)[0]
        if out_name in by:
            raise SchemaError(f"summarize output {out_name!r} clashes with a grouping column")
        if out_name == idx_name:
            raise SchemaError(f"summarize output {out_name!r} clashes with the result's index")
        kinds[out_name] = aggregates.result_kind(agg, t.kind_of(col))

    if grouping.index_name:
        idx_values, ticks, idx_adapter = _derived_index(t, grouping.index_rule, idx_name)
    else:
        idx_values, ticks, idx_adapter = t.columns[t.index].values, t.ticks(), t.adapter

    # Rows bucketed by (group cells..., index tick) in first-seen order;
    # each bucket's cells are its last row's, and resort sorts the result.
    # A NaN grouping cell is refused first, naming its row of ``t``.
    table._refuse_nan_keys(t.columns, by)
    buckets: dict[tuple, list[int]] = {}
    for i, bucket in enumerate(zip(*(t.columns[c].values for c in by), ticks)):
        buckets.setdefault(bucket, []).append(i)

    columns = {c: t.columns[c] for c in by}
    columns[idx_name] = Column(idx_adapter.cell_kind, idx_values)
    keyed = replace(
        t, columns=columns, index=idx_name, key=by, adapter=idx_adapter, groups=None, _ticks=ticks
    )
    out = table.rows_at(keyed, list(map(operator.itemgetter(-1), buckets.values())))
    data = dict(out.columns)
    pools = list(map(table.cells_at, buckets.values()))
    for out_name, (spec, col) in aggs.items():
        values = t.columns[col].values
        cells = [aggregates.apply(spec, pool(values)) for pool in pools]
        data[out_name] = Column(kinds[out_name], cells)
    return table.resort(with_columns(out, data))


# --- reshaping verbs --------------------------------------------------------


def gather(t: TemporalTable, names_to: str, values_to: str, columns) -> VerbOutcome:
    """Melt wide measure columns into long (name, value) pairs.

    The name column joins the key, so each original row becomes one row per
    melted column and uniqueness is preserved.
    """
    columns = list(dict.fromkeys(_names(columns)))
    if not columns:
        raise PreconditionError("gather needs at least one column")
    for c in columns:
        if c == t.index or c in t.key:
            raise SchemaError(f"cannot gather index or key column {c!r}")
    kind = table.common_kind(map(t.kind_of, columns), f"gathering {columns}")
    remaining = [c for c in t.columns if c not in columns]
    for new in (names_to, values_to):
        if new in remaining:
            raise SchemaError(f"column {new!r} already exists")
    if names_to == values_to:
        raise SchemaError("names_to and values_to must differ")

    # Each row once per gathered column, in row order.
    base = with_columns(t, {c: t.columns[c] for c in remaining})
    out = table.rows_at(base, list(chain.from_iterable(zip(*[range(t.nrows)] * len(columns)))))
    cells = list(chain.from_iterable(zip(*map(t.column, columns))))
    data = dict(out.columns)
    data[names_to] = Column("text", columns * t.nrows)
    data[values_to] = Column(kind, cells)
    return _outcome(t, table.resort(replace(with_columns(out, data), key=t.key + (names_to,))))


def spread(t: TemporalTable, key_col: str, value_col: str) -> VerbOutcome:
    """Pivot one key level per column: the inverse of gather.

    Level columns appear in ascending level order.  Rows are grouped by all
    remaining columns, and each group becomes one row.
    """
    if key_col == value_col:
        raise SchemaError("spread key and value columns must differ")
    if t.index in (key_col, value_col):
        raise SchemaError("cannot spread the index column")
    if value_col in t.key:
        raise SchemaError(f"cannot use key column {value_col!r} as spread values")

    level_cells = t.column(key_col)
    kind = t.kind_of(value_col)
    if None in level_cells:
        raise ValidityError(f"column {key_col!r} has missing levels; cannot spread")
    levels = sorted(set(level_cells), key=_sort_cell)
    names = [render_cell(v) for v in levels]
    remaining = [c for c in t.columns if c not in (key_col, value_col)]
    for nm in names:
        if nm in remaining:
            raise SchemaError(f"spread level {nm!r} clashes with an existing column")
    if len(set(names)) != len(names):
        raise ValidityError(f"levels of {key_col!r} render to identical column names")

    # A group's rows share the index and every key cell but ``key_col``'s,
    # so (key, index) uniqueness gives each of them its own level.
    firsts: dict[tuple, int] = {}
    spread_cells: dict[tuple, dict] = {}
    values = t.columns[value_col].values
    for i, group in enumerate(zip(*(t.columns[c].values for c in remaining))):
        firsts.setdefault(group, i)
        spread_cells.setdefault(group, {})[level_cells[i]] = values[i]

    base = with_columns(t, {c: t.columns[c] for c in remaining})
    out = table.rows_at(base, list(firsts.values()))
    data = dict(out.columns)
    for level, nm in zip(levels, names):
        data[nm] = Column(kind, [cells.get(level) for cells in spread_cells.values()])
    new_key = tuple(k for k in t.key if k != key_col)
    return _outcome(t, table.resort(replace(with_columns(out, data), key=new_key)))


# --- joins ------------------------------------------------------------------

_JOIN_KINDS = ("left", "right", "inner", "full", "semi", "anti")


def _join_keys(columns: list[list], nrows: int) -> list:
    """One key per row of ``columns``: its cell for one column, else a tuple."""
    return columns[0] if len(columns) == 1 else list(zip(*columns)) if columns else [()] * nrows


def _gather(values: list, rows: list) -> list:
    """The cells of ``values`` at ``rows``, missing where a row is None."""
    return [None if i is None else values[i] for i in rows]


def _matchable(lc: str, rc: str, left: list, right: list) -> set:
    """The kinds of the cells of join columns ``lc`` and ``rc``: one kind, or
    int and real, with time cells of one granularity, else SchemaError.  Any
    other type, such as an adapter's values, is a kind of its own."""
    what = f"joining {lc!r} with {rc!r}"
    kinds = set(map(table.kind_of_type, {*map(type, left), *map(type, right)}))
    if table.common_kind(kinds, what) == "time":
        one_granularity(what, (v for v in chain(left, right) if v is not None))
    return kinds


def join(t: TemporalTable, other, kind: str = "left", by=None) -> VerbOutcome:
    """Relational join re-validated under the temporal contract.

    ``by`` lists join columns as names or (left, right) pairs; by default the
    commonly named columns.  Missing cells match missing cells and int cells
    real ones; join columns whose cells cannot match raise SchemaError.  The
    other right-hand columns are typed whole, a table's keeping its kinds,
    and clashing names get a "_y" suffix.  A join column of a right/full
    join gets the common kind of both sides.  semi and anti filter left rows
    without adding columns.  A right-hand table whose index holds its
    adapter's own values (not cells of the library's kinds) must be joined
    on that index, for every kind: no other column can hold them.

    Each right key maps straight to its row; only a key that repeats, a
    fan-out, keeps the list of its rows, and a key holding NaN, which equals
    nothing, is left out.  Rows pair in left row order, each left row with
    its right rows in their order.
    """
    if kind not in _JOIN_KINDS:
        raise PreconditionError(f"join kind must be one of {_JOIN_KINDS}, got {kind!r}")
    right = table._normalize_raw(other)
    if isinstance(other, TemporalTable):
        # Only an index column reads its cells through an adapter.
        right[other.index] = right[other.index].values
    rn = len(next(iter(right.values()))) if right else 0

    if by is None:
        pairs = [(c, c) for c in t.columns if c in right]
        if not pairs:
            raise SchemaError("tables share no column names; pass join columns")
    else:
        pairs = [(p, p) if isinstance(p, str) else (p[0], p[1]) for p in _names(by)]
    for _, rc in pairs:
        if rc not in right:
            raise SchemaError(f"joined table has no column named {rc!r}")
    by_right = {rc for _, rc in pairs}
    if isinstance(other, TemporalTable) and other.index not in by_right:
        try:
            table.infer_kind(right[other.index])
        except SchemaError:
            raise SchemaError(
                f"the right-hand index {other.index!r} is no join column, and it holds "
                "its adapter's values, which only an index can hold; join on it"
            ) from None
    left_on = [t.column(lc) for lc, _ in pairs]
    right_on = [getattr(right[rc], "values", right[rc]) for _, rc in pairs]
    on = {lc: (rv, _matchable(lc, rc, lv, rv))
          for (lc, rc), lv, rv in zip(pairs, left_on, right_on)}

    # Each right key maps to its row, or, where it repeats, to the list of
    # its rows: a fan-out.
    right_keys = _join_keys(right_on, rn)
    # A dict finds an object by identity before it asks ==, so a NaN join
    # cell, which only a real column holds, would match itself.
    nan = set(chain.from_iterable(compress(count(), map(operator.ne, rv, rv))
                                  for rv, kinds in on.values() if "real" in kinds))
    right_rows = range(rn)
    if nan:
        right_rows = [j for j in right_rows if j not in nan]
        right_keys = [right_keys[j] for j in right_rows]
    lookup: dict[object, int | list[int]] = dict(zip(right_keys, right_rows))
    if len(lookup) < len(right_rows):
        rows_of: dict[object, list[int]] = {}
        for j, k in zip(right_rows, right_keys):
            rows_of.setdefault(k, []).append(j)
        lookup.update((k, js) for k, js in rows_of.items() if len(js) > 1)
    left_keys = _join_keys(left_on, t.nrows)

    if kind in ("semi", "anti"):
        hits = map(lookup.__contains__, left_keys)
        hits = hits if kind == "semi" else map(operator.not_, hits)
        return _outcome(t, take(t, list(compress(count(), hits))))

    extra = {c: table._typed_column(c, col) for c, col in right.items() if c not in by_right}
    renames = {c: (c + "_y" if c in t.columns else c) for c in extra}
    if len(set(renames.values()) | set(t.columns)) != len(renames) + len(t.columns):
        raise SchemaError("suffixed join column names still clash; rename before joining")

    # One (left row, right row) pair per output row, None for a side with no row.
    ri = list(map(lookup.get, left_keys))
    li = list(range(t.nrows))
    # Fan-out, a left row paired more than once, repeats its (key, index) pair.
    fan_out = len(lookup) < rn and list in set(map(type, ri))
    if fan_out:
        matches = [j if type(j) is list else (j,) for j in ri]
        li = [i for i, js in enumerate(matches) for _ in js]
        ri = list(chain.from_iterable(matches))
    if kind in ("inner", "right") and None in ri:
        li = [i for i, j in zip(li, ri) if j is not None]
        ri = [j for j in ri if j is not None]
    if kind in ("right", "full"):
        new = sorted(set(range(rn)).difference(ri))
        li, ri = li + [None] * len(new), ri + new
    added = {renames[c]: Column(col.kind, _gather(col.values, ri)) for c, col in extra.items()}

    if kind in ("left", "inner"):
        out = table.rows_at(t, li) if fan_out else t if len(li) == t.nrows else take(t, li)
        out = with_columns(out, {**out.columns, **added})
        return _outcome(t, table.resort(out) if fan_out else out)

    # Right-only rows bring index cells from outside, whose adapter build resolves.
    data: dict[str, Column | list] = {}
    for c, col in t.columns.items():
        rv, kinds = on.get(c, (None, ()))
        cells = _gather(col.values, li) if rv is None else [
            rv[j] if i is None else col.values[i] for i, j in zip(li, ri)]
        data[c] = cells if c == t.index else Column(
            table.common_kind((col.kind, *kinds), f"join column {c!r}"), cells)
    return _outcome(t, table.build({**data, **added}, t.index, t.key, t.declared_regular))
