"""Detect, summarize, and repair implicit missing observations.

A regular table promises one observation every ``multiple`` ticks per key.
These verbs compare that promise against the data.  The expected grid for a
key starts at the key's own first observation; with ``full=True`` it is
extended over the global [min, max] span of the whole table, staying on the
key's own tick phase so that observed points remain on-grid.
"""

from __future__ import annotations

from . import aggregates, table
from .errors import GapError, SchemaError, UnsupportedOperationError
from .record import Record
from .table import Column, TemporalTable, as_kind, common_kind, key_groups


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


def _missing_by_key(t: TemporalTable, full: bool) -> list[tuple[tuple, range, list[int]]]:
    """Per key: (key tuple, row range, sorted missing ticks)."""
    _require_regular(t)
    t = t.canonical()
    groups = key_groups(t)
    ticks = t.ticks()
    m = t.interval.multiple
    if full and groups:
        glo = min(ticks)
        ghi = max(ticks)
    out = []
    for kt, r in groups:
        observed = ticks[r.start : r.stop]
        have = set(observed)
        if full:
            # Stay on this key's phase inside the global span.
            lo = glo + (observed[0] - glo) % m
            hi = ghi
        else:
            lo = observed[0]
            hi = observed[-1]
        missing = [tk for tk in range(lo, hi + 1, m) if tk not in have]
        out.append((kt, r, missing))
    return out


def has_gaps(t: TemporalTable, full: bool = False) -> list[tuple[tuple, bool]]:
    """Per key tuple: does the series miss any expected index value?"""
    return [(kt, bool(missing)) for kt, _, missing in _missing_by_key(t, full)]


def scan_gaps(t: TemporalTable, full: bool = False) -> list[tuple[tuple, object]]:
    """Every implicit missing observation as a (key tuple, index value) row."""
    rows = []
    for kt, _, missing in _missing_by_key(t, full):
        for tk in missing:
            rows.append((kt, t.adapter.from_ticks(tk)))
    return rows


def count_gaps(t: TemporalTable, full: bool = False) -> GapReport:
    """Merge scan_gaps output into maximal consecutive ranges with counts."""
    m = t.interval.multiple if t.interval.is_regular else None
    entries = []
    for kt, _, missing in _missing_by_key(t, full):
        start = prev = None
        for tk in missing + [None]:
            if prev is not None and tk is not None and tk - prev == m:
                prev = tk
                continue
            if prev is not None:
                entries.append(
                    (kt, t.adapter.from_ticks(start), t.adapter.from_ticks(prev),
                     (prev - start) // m + 1)
                )
            start = prev = tk
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
    global span.  Columns keep their kinds; an aggregate policy widens its
    column to hold :func:`~temporaltable.aggregates.result_kind` cells.
    """
    t = t.canonical()
    fills = _resolve_fill(t, fills)
    per_key = _missing_by_key(t, full)
    measured = [c for c in t.columns if c != t.index and c not in t.key]

    data = {name: Column(col.kind, list(col.values)) for name, col in t.columns.items()}
    for col, policy in fills.items():
        if isinstance(policy, aggregates.Aggregate):
            kind = aggregates.result_kind(aggregates.parse_spec(policy.spec)[0], data[col].kind)
            data[col].kind = common_kind((data[col].kind, kind))
    for kt, r, missing in per_key:
        if not missing:
            continue
        agg_cache = {}
        for col, policy in fills.items():
            if isinstance(policy, aggregates.Aggregate):
                observed = t.columns[col].values[r.start : r.stop]
                agg_cache[col] = aggregates.apply(policy.spec, observed)
        for tk in missing:
            data[t.index].values.append(t.adapter.from_ticks(tk))
            for name, cell in zip(t.key, kt):
                data[name].values.append(cell)
            for col in measured:
                policy = fills.get(col)
                if policy is None:
                    data[col].values.append(None)
                elif isinstance(policy, aggregates.Aggregate):
                    data[col].values.append(agg_cache[col])
                else:
                    data[col].values.append(policy)

    return table.build(data, t.index, t.key, t.declared_regular, adapter=t.adapter)


def require_gapless(t: TemporalTable) -> None:
    """Refuse tables with detectable gaps; rolling and lag-like ops need this."""
    if not t.interval.is_regular:
        return
    gappy = [kt for kt, flag in has_gaps(t, full=False) if flag]
    if gappy:
        raise GapError(
            f"{len(gappy)} key(s) have implicit gaps (first: {gappy[0]!r}); "
            "run fill_gaps first"
        )
