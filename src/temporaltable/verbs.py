"""Table verbs that keep the temporal contract intact.

Every verb takes a valid table and either returns a valid table (wrapped in
a :class:`VerbOutcome` with any diagnostics) or raises an engine error.  Each
verb reruns only the construction checks its change can break:

* ``filter``, ``filter_index``, semi/anti ``join`` and inner ``join``
  without fan-out keep a subset of rows
  (:func:`~temporaltable.table.take`): order and uniqueness hold, so only
  the interval is re-inferred.
* ``mutate`` and ``transmute`` of non-key, non-index columns, ``select``
  keeping every key column, and left/inner ``join`` where each left row
  matches at most one right row keep the rows
  (:func:`~temporaltable.table.with_columns`): only new columns get
  kinds; interval, ticks and index adapter carry over.
* Anything that changes the key or index, adds rows or fans rows out goes
  through :func:`~temporaltable.table.build`: ``summarize``, ``gather``,
  ``spread``, right/full and fan-out joins, ``select`` dropping a key
  column, and ``mutate``/``transmute`` of a key or index column.

Every column a verb carries keeps its kind, and ``summarize`` declares
:func:`~temporaltable.aggregates.result_kind` for each aggregate.  Only
cells from outside the library get the kind of their values: new columns
of ``mutate``/``transmute`` and the right-hand table of a ``join`` (all
columns of a join that goes through ``build``).

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

Predicates and derivation functions receive one row as a plain dict.  They
must be pure; grouped aggregation may evaluate groups in any order.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right

from . import aggregates, table
from .adapters import IndexAdapter, resolve_index
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


def _call_rowwise(fn, row: dict, what: str):
    try:
        return fn(row)
    except KeyError as exc:
        raise SchemaError(f"{what} references unknown column {exc.args[0]!r}") from exc


# --- row verbs --------------------------------------------------------------


def _outcome(t: TemporalTable, out: TemporalTable, warnings: tuple = ()) -> VerbOutcome:
    """``out``, which a verb made from ``t``, with what survives of the
    grouping of ``t``, a warning naming what does not, and a warning when
    the interval changed.

    A grouping column survives when ``out`` has it.  An ``index_by`` rule
    survives when ``out`` keeps the index column and reads it through an
    adapter of the same kind, granularity and zone (``build`` resolves a
    new one for new index cells): the rule then reads the same kind of cell.
    """
    groups = t.groups
    if groups is not None:
        lost = [c for c in groups.by if c not in out.columns]
        if lost:
            warnings += (f"grouping columns {lost} dropped",)
            groups = replace(groups, by=tuple(c for c in groups.by if c in out.columns))
        same = lambda ad: (type(ad), ad.granularity, ad.zone)
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
    keep = [i for i, row in enumerate(t.rows()) if _call_rowwise(predicate, row, "predicate")]
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
    return _outcome(t, take(t, [i for i, tk in enumerate(t.ticks()) if tk in window]))


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
        return side(ticks, parse_timepoint(text, g).ticks)
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
    descending reverses that.
    """
    norm = []
    for item in _names(spec):
        if isinstance(item, str):
            norm.append((item, "asc"))
        else:
            name, direction = item
            if direction not in ("asc", "desc"):
                raise PreconditionError(f"sort direction must be asc or desc, got {direction!r}")
            norm.append((name, direction))
    for name, _ in norm:
        if name not in t.columns:
            raise SchemaError(f"no column named {name!r}")

    rows = list(t.rows())
    for name, direction in reversed(norm):
        rows.sort(key=lambda row: _sort_cell(row[name]), reverse=(direction == "desc"))
    return rows


# --- column verbs -----------------------------------------------------------


def select(t: TemporalTable, names) -> VerbOutcome:
    """Keep the named columns, preserving temporal semantics.

    Grouping columns left out are retained implicitly (with a warning), and
    so is the index when left out of a selection that keeps every key
    column.  Key columns may be dropped as long as the remaining key still
    identifies rows uniquely.
    """
    names = list(dict.fromkeys(_names(names)))
    for name in names:
        if name not in t.columns:
            raise SchemaError(f"no column named {name!r}")
    warnings = ()
    dropped_groups = [c for c in (t.groups.by if t.groups else ()) if c not in names]
    if dropped_groups:
        names.extend(dropped_groups)
        warnings = (f"grouping columns {dropped_groups} retained implicitly",)
    if t.index not in names:
        if all(k in names for k in t.key):
            names.append(t.index)
            warnings += (f"index column {t.index!r} retained implicitly",)
        else:
            raise SchemaError(
                f"selection removes the index column {t.index!r}; include it, "
                "or summarize/transmute to reshape the table"
            )
    new_key = tuple(k for k in t.key if k in names)
    data = {name: t.columns[name] for name in names}
    if new_key == t.key:
        out = with_columns(t, data)
    else:
        out = table.build(data, t.index, new_key, t.declared_regular, adapter=t.adapter)
    return _outcome(t, out, warnings)


def _evaluate(t_data: dict[str, list], nrows: int, expr, name: str) -> list:
    if callable(expr):
        what = f"column {name!r}"
        rows = table.row_dicts(list(t_data), t_data.values())
        return [_call_rowwise(expr, row, what) for row in rows]
    if isinstance(expr, (list, tuple)):
        if len(expr) != nrows:
            raise PreconditionError(
                f"column {name!r}: {len(expr)} values for {nrows} rows"
            )
        return list(expr)
    return [expr] * nrows


def _derive(t: TemporalTable, exprs: dict, keep: list[str]) -> VerbOutcome:
    """Evaluate ``exprs`` in order over ``t`` and keep ``keep``.

    New values of the index or a key column re-validate uniqueness and
    ordering through build.  Results get the kinds of their cells; the
    columns carried over keep theirs.
    """
    data = {name: col.values for name, col in t.columns.items()}
    n = t.nrows
    for name, expr in exprs.items():
        data[name] = _evaluate(data, n, expr, name)
    cols = {c: data[c] if c in exprs else t.columns[c] for c in keep}
    if t.index in exprs or any(k in exprs for k in t.key):
        adapter = None if t.index in exprs else t.adapter
        out = table.build(cols, t.index, t.key, t.declared_regular, adapter=adapter)
    else:
        out = with_columns(t, cols)
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
        if c not in t.columns:
            raise SchemaError(f"no column named {c!r}")
        if c == t.index:
            raise SchemaError(f"cannot group by the index column {c!r}; use index_by")
    base = t.groups or Grouping()
    return replace(t, groups=replace(base, by=tuple(cols)))


def group_by_key(t: TemporalTable) -> TemporalTable:
    """Group by every key column."""
    return group_by(t, *t.key)


def _derived_index(t: TemporalTable, rule, name: str) -> tuple[list, IndexAdapter]:
    """The index cells that ``index_by`` rule ``rule`` derives from ``t``,
    one per row, and their adapter, resolved from the distinct cells.

    ``rule`` is a :class:`Granularity` (floor each index cell to it) or a
    callable; each distinct tick's cell is derived once.  Raises
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
            return values, t.adapter
        fn = lambda v: floor_to(v, rule)
    else:
        fn = rule
    cells = {}
    for v, tk in zip(values, t.ticks()):
        if tk not in cells:
            cells[tk] = fn(v)
            if cells[tk] is None:
                raise MissingIndexError(
                    f"index_by maps {t.index!r} cell {t.adapter.render(v)} to a missing value"
                )
    adapter = resolve_index(name, list(cells.values()))
    derived_ticks = [adapter.to_ticks(cells[tk]) for tk in sorted(cells)]
    if any(map(operator.lt, derived_ticks[1:], derived_ticks)):
        raise PreconditionError("index mapping is not order-preserving")
    return list(map(cells.__getitem__, t.ticks())), adapter


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
    index.
    """
    grouping = t.groups or Grouping()
    idx_name = grouping.index_name or t.index
    by = [c for c in grouping.by if c != idx_name]
    kinds = {}
    for out_name, pair in aggs.items():
        spec, col = pair
        agg = aggregates.parse_spec(spec)[0]
        if col not in t.columns:
            raise SchemaError(f"aggregation over unknown column {col!r}")
        if out_name in by:
            raise SchemaError(f"summarize output {out_name!r} clashes with a grouping column")
        if out_name == idx_name:
            raise SchemaError(f"summarize output {out_name!r} clashes with the result's index")
        kinds[out_name] = aggregates.result_kind(agg, t.kind_of(col))

    if grouping.index_name:
        idx_values, idx_adapter = _derived_index(t, grouping.index_rule, idx_name)
    else:
        idx_values, idx_adapter = t.columns[t.index].values, t.adapter
    kinds.update((c, t.kind_of(c)) for c in by)

    # Rows bucketed by (group cells..., index tick) in first-seen order;
    # build sorts the result.
    group_values = [t.columns[c].values for c in by]
    buckets: dict[tuple, list[int]] = {}
    for i, bucket in enumerate(zip(*group_values, map(idx_adapter.to_ticks, idx_values))):
        buckets.setdefault(bucket, []).append(i)

    out: dict[str, list] = {c: [] for c in by}
    out[idx_name] = []
    for name in aggs:
        out[name] = []
    for rows in buckets.values():
        last = rows[-1]  # the bucket's cells are its last row's
        for c, values in zip(by, group_values):
            out[c].append(values[last])
        out[idx_name].append(idx_values[last])
        for out_name, (spec, col) in aggs.items():
            out[out_name].append(aggregates.apply(spec, [t.columns[col].values[i] for i in rows]))

    columns = {c: Column(kinds[c], v) if c in kinds else v for c, v in out.items()}
    return table.build(columns, idx_name, tuple(by), t.declared_regular, adapter=idx_adapter)


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
        if c not in t.columns:
            raise SchemaError(f"no column named {c!r}")
        if c == t.index or c in t.key:
            raise SchemaError(f"cannot gather index or key column {c!r}")
    kind = table.common_kind(t.kind_of(c) for c in columns)
    remaining = [c for c in t.columns if c not in columns]
    for new in (names_to, values_to):
        if new in remaining:
            raise SchemaError(f"column {new!r} already exists")
    if names_to == values_to:
        raise SchemaError("names_to and values_to must differ")

    data = {c: Column(t.kind_of(c), []) for c in remaining}
    data[names_to] = Column("text", [])
    data[values_to] = Column(kind, [])
    for i in range(t.nrows):
        for c in columns:
            for r in remaining:
                data[r].values.append(t.columns[r].values[i])
            data[names_to].values.append(c)
            data[values_to].values.append(t.columns[c].values[i])

    new_key = t.key + (names_to,)
    return _outcome(t, table.build(data, t.index, new_key, t.declared_regular, adapter=t.adapter))


def spread(t: TemporalTable, key_col: str, value_col: str) -> VerbOutcome:
    """Pivot one key level per column: the inverse of gather.

    Level columns appear in ascending level order.  Rows are grouped by all
    remaining columns; a level observed twice in one group is a validity
    error.
    """
    for c in (key_col, value_col):
        if c not in t.columns:
            raise SchemaError(f"no column named {c!r}")
    if key_col == value_col:
        raise SchemaError("spread key and value columns must differ")
    if t.index in (key_col, value_col):
        raise SchemaError("cannot spread the index column")
    if value_col in t.key:
        raise SchemaError(f"cannot use key column {value_col!r} as spread values")

    levels = t.columns[key_col].values
    if None in levels:
        raise ValidityError(f"column {key_col!r} has missing levels; cannot spread")
    levels = sorted(set(levels), key=_sort_cell)
    names = [render_cell(v) for v in levels]
    remaining = [c for c in t.columns if c not in (key_col, value_col)]
    for nm in names:
        if nm in remaining:
            raise SchemaError(f"spread level {nm!r} clashes with an existing column")
    if len(set(names)) != len(names):
        raise ValidityError(f"levels of {key_col!r} render to identical column names")

    groups: dict[tuple, dict] = {}
    order: list[tuple] = []
    for i in range(t.nrows):
        gk = tuple(t.columns[c].values[i] for c in remaining)
        if gk not in groups:
            groups[gk] = {}
            order.append(gk)
        level = t.columns[key_col].values[i]
        if level in groups[gk]:
            raise ValidityError(
                f"duplicate level {level!r} of {key_col!r} within one row group; "
                "cannot spread"
            )
        groups[gk][level] = t.columns[value_col].values[i]

    data = {c: Column(t.kind_of(c), []) for c in remaining}
    for nm in names:
        data[nm] = Column(t.kind_of(value_col), [])
    for gk in order:
        for c, cell in zip(remaining, gk):
            data[c].values.append(cell)
        for level, nm in zip(levels, names):
            data[nm].values.append(groups[gk].get(level))

    new_key = tuple(k for k in t.key if k != key_col)
    return _outcome(t, table.build(data, t.index, new_key, t.declared_regular, adapter=t.adapter))


# --- joins ------------------------------------------------------------------

_JOIN_KINDS = ("left", "right", "inner", "full", "semi", "anti")


def _other_columns(other) -> dict[str, list]:
    if isinstance(other, TemporalTable):
        return other.to_dict()
    cols = {str(k): list(v) for k, v in dict(other).items()}
    if len({len(v) for v in cols.values()}) > 1:
        raise SchemaError("joined table has ragged columns")
    return cols


def _zipped(columns: list[list], nrows: int) -> list[tuple]:
    """One tuple of cells per row of ``columns``; ``()`` per row when none."""
    return list(zip(*columns)) if columns else [()] * nrows


def join(t: TemporalTable, other, kind: str = "left", by=None) -> VerbOutcome:
    """Relational join re-validated under the temporal contract.

    ``by`` lists join columns as names or (left, right) pairs; by default the
    commonly named columns.  Missing cells match missing cells.  Clashing
    right column names get a "_y" suffix.  semi and anti filter left rows
    without adding columns.
    """
    if kind not in _JOIN_KINDS:
        raise PreconditionError(f"join kind must be one of {_JOIN_KINDS}, got {kind!r}")
    right = _other_columns(other)
    rn = len(next(iter(right.values()))) if right else 0

    if by is None:
        pairs = [(c, c) for c in t.columns if c in right]
        if not pairs:
            raise SchemaError("tables share no column names; pass join columns")
    else:
        pairs = [(p, p) if isinstance(p, str) else (p[0], p[1]) for p in _names(by)]
    for lc, rc in pairs:
        if lc not in t.columns:
            raise SchemaError(f"no column named {lc!r}")
        if rc not in right:
            raise SchemaError(f"joined table has no column named {rc!r}")

    lookup: dict[tuple, list[int]] = {}
    for j, k in enumerate(_zipped([right[rc] for _, rc in pairs], rn)):
        lookup.setdefault(k, []).append(j)

    left_keys = _zipped([t.columns[lc].values for lc, _ in pairs], t.nrows)

    if kind in ("semi", "anti"):
        want = kind == "semi"
        return _outcome(t, take(t, [i for i, k in enumerate(left_keys) if (k in lookup) == want]))

    by_right = {rc for _, rc in pairs}
    extra = [c for c in right if c not in by_right]
    renames = {c: (c + "_y" if c in t.columns else c) for c in extra}
    if len(set(renames.values()) | set(t.columns)) != len(renames) + len(t.columns):
        raise SchemaError("suffixed join column names still clash; rename before joining")

    matches = [lookup.get(k) for k in left_keys]
    if kind in ("left", "inner") and all(js is None or len(js) == 1 for js in matches):
        # No fan-out: t plus the right columns, then for inner the matched rows.
        cols: dict[str, Column | list] = dict(t.columns)
        for c in extra:
            values = right[c]
            cols[renames[c]] = [None if js is None else values[js[0]] for js in matches]
        out = with_columns(t, cols)
        if kind == "inner":
            out = take(out, [i for i, js in enumerate(matches) if js])
        return _outcome(t, out)

    data: dict[str, Column | list] = {c: [] for c in t.columns}
    for c in extra:
        data[renames[c]] = []

    def emit(i: int | None, j: int | None):
        for c, col in t.columns.items():
            data[c].append(col.values[i] if i is not None else None)
        for c in extra:
            data[renames[c]].append(right[c][j] if j is not None else None)
        if i is None and j is not None:
            for (lc, rc) in pairs:
                data[lc][-1] = right[rc][j]

    matched_right = set()
    for i, js in enumerate(matches):
        if js:
            matched_right.update(js)
            for j in js:
                emit(i, j)
        elif kind in ("left", "full"):
            emit(i, None)
    if kind in ("right", "full"):
        for j in range(rn):
            if j not in matched_right:
                emit(None, j)

    # Left columns keep their declared kinds.  A right/full join also puts
    # right-hand cells in the join columns, which take the common kind of
    # both sides.  The index kind is its adapter's.
    adds_right = kind in ("right", "full")
    for c, col in t.columns.items():
        if c != t.index:
            declared = col.kind
            if adds_right and any(c == lc for lc, _ in pairs):
                declared = table.common_kind((declared, table.infer_kind(data[c])))
            data[c] = Column(declared, data[c])
    adapter = None if adds_right else t.adapter
    return _outcome(t, table.build(data, t.index, t.key, t.declared_regular, adapter=adapter))
