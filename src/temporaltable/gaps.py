"""Detect, summarize, and repair implicit missing observations.

A regular table promises one observation every ``multiple`` ticks per key.
A gap is a run of missing index values between two consecutive
observations of a series, found from their ticks alone: the four verbs
read the same runs.  With ``full=True`` each series is also held to the
global [min, max] span of the whole table, on its own tick phase so that
observed points stay on-grid, which adds a run before its first and after
its last observation where the span reaches further.  ``has_gaps``,
``count_gaps`` and ``require_gapless`` therefore cost time per observation,
not per expected tick; ``scan_gaps`` costs per missing value it returns.
``fill_gaps`` costs per row and per missing value, with no sort: it keeps
the order, the kinds and the ticks of the table it fills, and places each
run of new rows by one ``bisect`` in its series.  It makes one object per
distinct value, not per new row: the adapter's ``from_ticks`` is called once
per distinct missing tick, and that index cell is shared by every series
that misses the tick, as each new row's key and fill cells are shared.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from . import aggregates
from .errors import GapError, SchemaError, UnsupportedOperationError
from .record import Record
from .table import (
    Column,
    TemporalTable,
    as_kind,
    cell_kind,
    cells_at,
    common_kind,
    key_groups,
    place_rows,
    replace,
)


class GapReport(Record):
    """Maximal missing ranges per key: (key tuple, from, to, n)."""

    __slots__ = ("key_names", "index_name", "entries")

    def __init__(
        self,
        key_names: tuple[str, ...],
        index_name: str,
        entries: list[tuple[tuple, object, object, int]],
    ):
        self.key_names = key_names
        self.index_name = index_name
        self.entries = entries

    def total(self) -> int:
        return sum(n for _, _, _, n in self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)


def _require_regular(t: TemporalTable) -> None:
    if not t.interval.is_regular:
        raise UnsupportedOperationError(
            f"gap analysis needs a regular interval; this table is {t.interval} "
            "(regularize or rebuild with regular=True first)"
        )


def _runs_by_key(t: TemporalTable, full: bool) -> Iterator[tuple[tuple, range, list[range]]]:
    """Per key: (key tuple, row range, runs of missing ticks as ranges), each
    key's runs made as they are read."""
    _require_regular(t)
    groups = key_groups(t)
    ticks = t.ticks()
    m = t.interval.multiple
    if full and groups:
        glo = min(ticks)
        ghi = max(ticks)

    def runs(r: range) -> list[range]:
        observed = ticks[r.start : r.stop]
        if full:
            # One step outside the first and last tick on this key's phase
            # inside the global span.
            first = observed[0]
            observed = [glo + (first - glo) % m - m, *observed, ghi - (ghi - first) % m + m]
        return [range(a + m, b, m) for a, b in zip(observed, observed[1:]) if b - a > m]

    return ((kt, r, runs(r)) for kt, r in groups)


def has_gaps(t: TemporalTable, full: bool = False) -> list[tuple[tuple, bool]]:
    """Per key tuple: does the series miss any expected index value?"""
    return [(kt, bool(runs)) for kt, _, runs in _runs_by_key(t, full)]


def scan_gaps(t: TemporalTable, full: bool = False) -> list[tuple[tuple, object]]:
    """Every implicit missing observation as a (key tuple, index value) row."""
    return [
        (kt, t.adapter.from_ticks(tk))
        for kt, _, runs in _runs_by_key(t, full)
        for run in runs
        for tk in run
    ]


def count_gaps(t: TemporalTable, full: bool = False) -> GapReport:
    """Each run of missing index values as (key tuple, from, to, count)."""
    entries = [
        (kt, t.adapter.from_ticks(run[0]), t.adapter.from_ticks(run[-1]), len(run))
        for kt, _, runs in _runs_by_key(t, full)
        for run in runs
    ]
    return GapReport(key_names=t.key, index_name=t.index, entries=entries)


def _resolve_fill(t: TemporalTable, fills: dict | None) -> dict:
    fills = dict(fills or {})
    for col, policy in fills.items():
        if col not in t.columns:
            raise SchemaError(f"fill policy names unknown column {col!r}")
        if col == t.index or col in t.key:
            raise SchemaError(f"cannot fill {col!r}: index and key columns are derived")
        if isinstance(policy, aggregates.Aggregate) or policy is None:
            continue
        try:
            fills[col] = as_kind(policy, t.kind_of(col))
        except SchemaError as exc:
            raise SchemaError(f"constant fill for column {col!r}: {exc}") from None
    return fills


def fill_gaps(
    t: TemporalTable, fills: dict | None = None, full: bool = False
) -> TemporalTable:
    """Turn implicit gaps into explicit rows.

    ``fills`` maps measured column names to a policy: a constant of the
    column's kind, an :class:`~temporaltable.aggregates.Aggregate` computed
    over the key's observed values, or None for a plain missing marker
    (the default for unlisted columns).  Existing rows pass through
    untouched; with ``full=True`` the result is a balanced panel over the
    global span.  Each filled column widens to the common kind of its own
    and its policy's: the constant's kind, or the
    :func:`~temporaltable.aggregates.result_kind` of an aggregate.  So a
    column with no present cell (kind None) takes the kind of its fill.

    The grouping is kept whole: every column stays, and so does the index
    an ``index_by`` rule reads, which applies to the new index values too.

    The result is what ``build`` makes of the same rows, without its work:
    each run of missing ticks lies strictly between two consecutive
    observations of its series (or beyond its ends, with ``full=True``), so
    it is spliced in where ``bisect`` finds its first tick among the
    series' old ticks, and the rows stay in canonical order.  The new index
    cells for one tick are one shared object, made by one ``from_ticks``
    call, as :func:`~temporaltable.ingest.ingest` shares one point per
    distinct text.
    """
    fills = _resolve_fill(t, fills)
    per_key = _runs_by_key(t, full)
    measured = [c for c in t.columns if c != t.index and c not in t.key]

    data = {name: Column(col.kind, list(col.values)) for name, col in t.columns.items()}
    for col, policy in fills.items():
        if isinstance(policy, aggregates.Aggregate):
            kind = aggregates.result_kind(aggregates.parse_spec(policy.spec)[0], data[col].kind)
        else:
            kind = cell_kind(policy)
        data[col].kind = common_kind((data[col].kind, kind), f"filling column {col!r}")
    # New rows go after the old ones; ``order`` lists every row position in
    # canonical order, one series at a time, and ``ends`` where each ends.
    old = t.ticks()
    ticks = list(old)
    order: list[int] = []
    ends: list[int] = []
    for kt, r, runs in per_key:
        at = r.start
        for run in runs:
            cut = bisect_left(old, run[0], at, r.stop)
            order += range(at, cut)
            order += range(len(ticks), len(ticks) + len(run))
            ticks += run
            at = cut
        order += range(at, r.stop)
        ends.append(len(order))
        n = sum(map(len, runs))
        if not n:
            continue
        for name, cell in zip(t.key, kt):
            data[name].values.extend([cell] * n)
        cells = {
            col: aggregates.apply(policy.spec, t.columns[col].values[r.start : r.stop])
            if isinstance(policy, aggregates.Aggregate)
            else policy
            for col, policy in fills.items()
        }
        for col in measured:
            data[col].values.extend([cells.get(col)] * n)
    # One index cell per distinct new tick, shared by every series missing it.
    new = ticks[len(old) :]
    shared = {tick: t.adapter.from_ticks(tick) for tick in dict.fromkeys(new)}
    data[t.index].values.extend(map(shared.__getitem__, new))

    return place_rows(replace(t, columns=data, _ticks=ticks), cells_at(order), ends)


def require_gapless(t: TemporalTable) -> None:
    """Refuse tables with detectable gaps; rolling and lag-like ops need this."""
    if not t.interval.is_regular:
        return
    gappy = [kt for kt, flag in has_gaps(t, full=False) if flag]
    if gappy:
        kt, first, last, n = count_gaps(t).entries[0]
        raise GapError(
            f"{len(gappy)} key(s) have implicit gaps (first: key {kt!r} misses "
            f"{t.adapter.render(first)} .. {t.adapter.render(last)} ({n} points)); "
            "run fill_gaps first"
        )
