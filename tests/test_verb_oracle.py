"""Verb results against a fresh build of the same rows.

The verbs make their results with four constructors that rerun only the
checks a verb can break: ``take`` for row subsets, ``with_columns`` for
same-row column changes, ``resort`` for typed rows under a new key or in a
new order, and ``build`` only for index or key cells from outside the
library.  Every result must still be exactly what :func:`build` makes of
its rows: same cells in the same order, interval, index adapter and key
notes.  Column kinds are declared by the verbs, not re-read from cells: a
row subset keeps its parent's schema.
"""

import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from temporaltable import (
    DuplicateIndexError,
    Granularity,
    IndexAdapter,
    SchemaError,
    ValidityError,
    build,
    duplicates,
    fill_gaps,
    filter_index,
    floor_to,
    gather,
    group_by,
    index_by,
    join,
    mutate,
    parse_timepoint,
    register_index_adapter,
    roll_by_key,
    select,
    spread,
    summarize,
    table,
    timepoint as tp,
    transmute,
    unregister_index_adapter,
    verbs,
)
from temporaltable import filter as tfilter
from temporaltable.adapters import OrdinalIndex, TimeIndex
from temporaltable.granularity import coarser_or_equal
from temporaltable.interval import Interval

KEY_COLUMNS = ("k_int", "k_real", "k_text")


def assert_matches_build(out, schema=None):
    """``out`` equals a fresh build of its rows.  Its schema is ``schema``
    when given (the kinds the verb declares, such as the schema of the table
    a row subset came from), and otherwise build's, read from the cells."""
    ref = build(out.to_dict(), out.index, out.key, out.declared_regular, adapter=out.adapter)
    assert out.to_dict() == ref.to_dict()
    assert out.schema == (ref.schema if schema is None else schema)
    assert out.interval == ref.interval
    assert out.notes == ref.notes
    assert out.ticks() == ref.ticks()
    if out.nrows:
        resolved = build(out.to_dict(), out.index, out.key, out.declared_regular).adapter
        assert type(resolved) is type(out.adapter)
        assert (resolved.granularity, resolved.zone) == (out.adapter.granularity, out.adapter.zone)


@st.composite
def tables(draw):
    """A valid table: int, real and text columns with missing cells, 0-3 key
    columns, an ordinal or daily index, and a row id ``rid``."""
    key = tuple(draw(st.permutations(KEY_COLUMNS))[: draw(st.integers(0, 3))])
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, None]),
                st.sampled_from([0.5, 2, 2.5, None]),  # a real column holding an int
                st.sampled_from(["a", "b", None]),
                st.integers(0, 12),
                st.one_of(st.none(), st.integers(-5, 5)),
                st.one_of(st.none(), st.integers(-5, 5), st.floats(-10, 10, allow_nan=False)),
                st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
            ),
            max_size=25,
        )
    )
    step = draw(st.sampled_from([1, 2, 3]))
    daily = draw(st.booleans())
    seen, cols = set(), {c: [] for c in ("rid", *KEY_COLUMNS, "t", "m_int", "m_real", "m_text")}
    for k_int, k_real, k_text, slot, m_int, m_real, m_text in rows:
        cells = {"k_int": k_int, "k_real": k_real, "k_text": k_text}
        pair = (tuple(cells[k] for k in key), slot)
        if pair in seen:
            continue
        seen.add(pair)
        tick = 3 + slot * step
        cells.update(rid=len(seen), t=tp.TimePoint(tick, Granularity.DAY) if daily else tick,
                     m_int=m_int, m_real=m_real, m_text=m_text)
        for c, v in cells.items():
            cols[c].append(v)
    return build(cols, "t", key, regular=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_row_subset_verbs_match_build(t, data):
    keep = data.draw(st.sets(st.integers(1, t.nrows or 1)))
    out = tfilter(t, lambda r: r["rid"] in keep).table
    assert_matches_build(out, t.schema)
    assert [r["rid"] for r in out.rows()] == [r["rid"] for r in t.rows() if r["rid"] in keep]

    lo, hi = sorted(data.draw(st.lists(st.integers(0, 40), min_size=2, max_size=2)))
    if t.nrows:
        window = f"{t.adapter.render(t.adapter.from_ticks(lo))} ~ {t.adapter.render(t.adapter.from_ticks(hi))}"
        out = filter_index(t, window).table
        assert_matches_build(out, t.schema)
        assert out.ticks() == [tk for tk in t.ticks() if lo <= tk <= hi]

    right = {"m_text": ["x", "z", None], "w": [1.5, 2, None]}
    for kind in ("semi", "anti"):
        out = join(t, right, kind, by=["m_text"]).table
        assert_matches_build(out, t.schema)
    left = join(t, right, "left", by=["m_text"]).table
    # "w" is typed whole before any row is picked: real, whichever rows match.
    assert_matches_build(left, [*t.schema, ("w", "real")])
    # inner keeps a subset of the left join's rows, right-hand column included.
    out = join(t, right, "inner", by=["m_text"]).table
    assert_matches_build(out, left.schema)
    lookup = dict(zip(right["m_text"], right["w"]))
    assert left.column("w") == [lookup.get(v) for v in t.column("m_text")]


# --- join against a nested-loop model ---------------------------------------

# Right-hand cells per join column: some equal left cells, ints that match
# reals (2 and 2.0), cells no left row holds, and missing cells.
_RIGHT_CELLS = {
    "k_int": [1, 2, 2.0, 3, None],
    "k_real": [0.5, 2, 2.0, 2.5, 3.5, None],
    "k_text": ["a", "b", "c", None],
    "m_int": [-1, 0, 0.0, 1, 6, None],
    "m_text": ["x", "y", "q", None],
}
_CELL_KINDS = {bool: "bool", int: "int", float: "real", str: "text", tp.TimePoint: "time"}


def _join_model(t, right, by, kind):
    """The columns of ``join(t, right, kind, by)`` and their kinds, from
    nested loops over both sides' rows: each left row in order with each
    right row it matches in order, then the right rows no left row matched.
    Join cells match by ``==`` (None matches None, 2 matches 2.0)."""
    n = len(right["w"])
    left = [t.row(i) for i in range(t.nrows)]
    rows_right = [{c: cells[j] for c, cells in right.items()} for j in range(n)]
    pairs = [(i, j) for i, lrow in enumerate(left) for j, rrow in enumerate(rows_right)
             if all(lrow[c] == rrow[c] for c in by)]
    kinds = dict(t.schema)
    if kind in ("semi", "anti"):
        hit = {i for i, _ in pairs}
        rows = [lrow for i, lrow in enumerate(left) if (i in hit) == (kind == "semi")]
        return {c: [row[c] for row in rows] for c in kinds}, kinds
    extra = {c: c + "_y" if c in t.columns else c for c in right if c not in by}
    rows = []
    for i, lrow in enumerate(left):
        js = [j for li, j in pairs if li == i] or ([None] if kind in ("left", "full") else [])
        for j in js:
            rows.append({**lrow, **{y: None if j is None else right[c][j] for c, y in extra.items()}})
    if kind in ("right", "full"):
        matched = {j for _, j in pairs}
        rows += [{**dict.fromkeys(t.columns), **{c: rrow[c] for c in by},
                  **{y: rrow[c] for c, y in extra.items()}}
                 for j, rrow in enumerate(rows_right) if j not in matched]
        # Build resolves the kind of the index from its cells.
        for c in set(by) - {t.index}:
            cells = [v for v in (*t.column(c), *right[c]) if v is not None]
            kinds[c] = table.common_kind([kinds[c], *(_CELL_KINDS[type(v)] for v in cells)])
    for c, y in extra.items():
        kinds[y] = table.infer_kind(right[c]) or "text"
    return {c: [row[c] for row in rows] for c in kinds}, kinds


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from(verbs._JOIN_KINDS), st.data())
def test_join_matches_a_nested_loop_model(t, kind, data):
    by = data.draw(st.lists(st.sampled_from([*_RIGHT_CELLS, "t"]), min_size=1, max_size=2,
                            unique=True))
    daily = t.adapter.granularity is Granularity.DAY
    ticks = [3, 4, 5, 6, 9, None]
    pools = {**_RIGHT_CELLS,
             "t": [tp.TimePoint(tk, Granularity.DAY) if daily and tk else tk for tk in ticks]}
    # Right keys unique under ==, or drawn with repeats: a fan-out.
    keys = data.draw(st.lists(st.tuples(*(st.sampled_from(pools[c]) for c in by)), max_size=6,
                              unique=data.draw(st.booleans())))
    right = {c: [k[x] for k in keys] for x, c in enumerate(by)}
    right["w"] = list(range(len(keys)))
    right["m_real"] = data.draw(st.lists(st.none() | st.floats(-5, 5), min_size=len(keys),
                                         max_size=len(keys)))
    try:
        columns, kinds = _join_model(t, right, by, kind)
        want = build({c: cells if c == t.index else table.Column(kinds[c], cells)
                      for c, cells in columns.items()}, t.index, t.key, t.declared_regular)
    except (SchemaError, ValidityError) as exc:
        # A fan-out or a right-hand row repeats a (key, index) pair or brings
        # no index cell, or right-hand join cells have no common kind with
        # their left column's: the join refuses it as build does.
        with pytest.raises(type(exc)):
            join(t, right, kind, by=by)
        return
    got = join(t, right, kind, by=by).table
    assert got.to_dict() == want.to_dict()
    assert [list(map(type, col.values)) for col in got.columns.values()] == [
        list(map(type, col.values)) for col in want.columns.values()]
    # Only right-hand rows bring index cells whose kind build resolves.
    assert got.schema == [
        (c, k if c == t.index and kind in ("right", "full") else kinds[c]) for c, k in want.schema]
    assert got.interval == want.interval
    assert got.ticks() == want.ticks()


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_same_row_verbs_match_build(t, data):
    measures = [c for c in t.columns if c != t.index and c not in t.key]
    names = data.draw(st.permutations([*t.key, *data.draw(st.sets(st.sampled_from(measures)))]))
    out = select(t, names).table
    assert_matches_build(out)
    assert out.column_names == [*names, t.index]

    cells = st.one_of(st.none(), st.integers(-3, 3), st.floats(-3, 3, allow_nan=False))
    overwrite = data.draw(st.sampled_from(measures))
    values = data.draw(st.lists(cells, min_size=t.nrows, max_size=t.nrows))
    out = mutate(t, **{overwrite: values, "label": lambda r: f"{r['rid']}:{r[overwrite]}"}).table
    assert_matches_build(out)
    assert out.column(overwrite) == values
    assert out.column_names == [*t.column_names, "label"]

    out = transmute(t, twice=lambda r: None if r["m_int"] is None else 2 * r["m_int"]).table
    assert_matches_build(out)

    if t.nrows and t.interval.form != "irregular":
        gapless = fill_gaps(t) if t.interval.is_regular else t
        out = roll_by_key(gapless, "rid", "slide", lambda w: sum(v or 0 for v in w) / 2, 2)
        # Where no window ends, the result column takes the rolled column's kind.
        rolled = "real" if any(v is not None for v in out.column("rid_slide")) else "int"
        assert_matches_build(out, [*gapless.schema, ("rid_slide", rolled)])


# Clock changes in 2021, as UTC minutes since the epoch: New York springs
# forward on 14 March and falls back on 7 November, Melbourne falls back on
# 4 April and springs forward on 3 October.
DST_2021_MINUTES = [
    int(datetime(2021, mo, d, h, tzinfo=timezone.utc).timestamp()) // 60
    for mo, d, h in [(3, 14, 7), (11, 7, 6), (4, 3, 16), (10, 2, 16)]
]
WINDOW_ZONES = (None, "America/New_York", "Australia/Melbourne")
# Index granularities, each with how many of its ticks its rows lie within
# on either side of a clock change.
INDEX_SPREAD = {
    Granularity.WEEK: 20,
    Granularity.DAY: 40,
    Granularity.HOUR: 60,
    Granularity.MINUTE: 1500,
}
# The granularities a window endpoint is written at, down to the finest
# index: hour text reads as minutes.
ENDPOINT_GRANULARITIES = [Granularity.YEAR, Granularity.QUARTER, Granularity.MONTH,
                          Granularity.WEEK, Granularity.DAY, Granularity.MINUTE]


def _tick_near(g, minute, offset):
    """The tick of ``g`` ``offset`` ticks from the one holding UTC ``minute``."""
    day = minute // (24 * 60)
    return offset + {
        Granularity.MINUTE: minute,
        Granularity.HOUR: minute // 60,
        Granularity.DAY: day,
        Granularity.WEEK: (day + 3) // 7,  # week 0 starts on Monday 1969-12-29
    }[g]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_filter_index_keeps_rows_whose_floor_lies_in_the_window(data):
    g = data.draw(st.sampled_from(sorted(INDEX_SPREAD, key=lambda g: g.value)), label="index")
    zone = data.draw(st.sampled_from(WINDOW_ZONES), label="zone")
    minute = data.draw(st.sampled_from(DST_2021_MINUTES), label="clock change")
    spread = INDEX_SPREAD[g]
    offsets = st.integers(-spread, spread)
    rows = data.draw(st.lists(st.tuples(st.sampled_from("ab"), offsets), min_size=1,
                              max_size=40, unique=True), label="rows")
    t = build({"k": [k for k, _ in rows], "rid": list(range(len(rows))),
               "t": [tp.TimePoint(_tick_near(g, minute, o), g, zone) for _, o in rows]},
              "t", ("k",))

    def endpoint():
        eg = data.draw(st.sampled_from(
            [e for e in ENDPOINT_GRANULARITIES if coarser_or_equal(e, g)]))
        cell = tp.TimePoint(_tick_near(g, minute, data.draw(offsets)), g, zone)
        text = floor_to(cell, eg).render()
        return text, eg, parse_timepoint(text, eg, zone).ticks

    shape = data.draw(st.sampled_from(["single", "closed", "from", "to"]), label="shape")
    lo = hi = None
    if shape == "single":
        text, eg, tick = endpoint()
        window, lo, hi = text, (eg, tick), (eg, tick)
    else:
        if shape != "to":
            text_lo, eg, tick = endpoint()
            lo = (eg, tick)
        if shape != "from":
            text_hi, eg, tick = endpoint()
            hi = (eg, tick)
        window = f"{text_lo if lo else ''} ~ {text_hi if hi else ''}"

    def kept(cell):
        return (lo is None or floor_to(cell, lo[0]).ticks >= lo[1]) and (
            hi is None or floor_to(cell, hi[0]).ticks <= hi[1])

    out = filter_index(t, window).table
    assert_matches_build(out, t.schema)
    assert out.column("rid") == [r for r, cell in zip(t.column("rid"), t.column("t"))
                                 if kept(cell)]


def test_filter_to_zero_rows():
    t = build({"t": [tp.day(2020, 1, d) for d in (1, 2, 3)], "k": ["a", "a", "b"],
               "v": [1.5, 2.0, 3.0]}, "t", ("k",))
    out = tfilter(t, lambda r: False).table
    assert out.nrows == 0
    assert out.interval == Interval.unknown()
    assert type(out.adapter) is TimeIndex
    assert out.kind_of("t") == "time"
    assert out.kind_of("v") == "real"
    assert_matches_build(out, t.schema)


def test_empty_subset_keeps_a_numeric_column_rollable():
    t = build({"t": [1, 2, 3], "v": [4, 5, 6]}, "t")
    empty = tfilter(t, lambda r: False).table
    assert empty.kind_of("v") == "int"
    out = roll_by_key(empty, "v", "slide", sum, 2)
    assert out.nrows == 0
    assert out.column("v_slide") == []


def test_column_left_all_missing_gathers_with_its_kind():
    t = build({"t": [1, 2, 3], "a": [1, 2, 3], "b": [None, None, 7]}, "t")
    out = tfilter(t, lambda r: r["b"] is None).table
    assert out.kind_of("b") == "int"
    long = gather(out, "which", "value", ["a", "b"]).table
    assert long.kind_of("value") == "int"
    assert long.column("which") == ["a", "a", "b", "b"]
    assert long.column("value") == [1, 2, None, None]


def test_real_column_subset_of_ints_stays_real():
    t = build({"t": [1, 2, 3], "v": [1, 2.5, 3]}, "t")
    assert t.kind_of("v") == "real"
    out = tfilter(t, lambda r: r["v"] != 2.5).table
    assert out.kind_of("v") == "real"
    assert out.column("v") == [1, 3]
    assert_matches_build(out, t.schema)


MISSING_REAL_CASES = {
    "fill_gaps": ({"t": [1, 2, 4, 3]}, (), fill_gaps, "r"),
    "select_dropping_key": (
        {"k": ["a", "a", "b"], "t": [1, 2, 3]}, ("k",), lambda t: select(t, ["t", "r"]), "r"
    ),
    "mutate_key": (
        {"k": ["a", "a", "b"], "t": [1, 2, 3]}, ("k",),
        lambda t: mutate(t, k=lambda row: row["k"].upper()), "r",
    ),
    "spread": (
        {"k": ["a", "a", "a", "a", "b"], "name": ["p", "q", "p", "q", "p"],
         "t": [1, 1, 2, 2, 3], "val": [1.5, 2.5, 3.5, 4.5, 5.5]},
        ("k", "name"), lambda t: spread(t, "name", "val"), "r",
    ),
    "gather": (
        {"t": [1, 2, 3], "v": [1.5, 2.5, 3.5]}, (),
        lambda t: gather(t, "name", "value", ["r"]), "value",
    ),
}


@pytest.mark.parametrize(
    ("raw", "key", "verb", "column"), MISSING_REAL_CASES.values(), ids=MISSING_REAL_CASES.keys()
)
def test_all_missing_real_column_keeps_its_kind(raw, key, verb, column):
    # The last raw row holds the one present cell of "r"; filtering it away
    # leaves a real column with no present cell, which each verb rebuilds.
    t = build({**raw, "r": [None] * (len(raw["t"]) - 1) + [0.5]}, "t", key)
    t = tfilter(t, lambda row: row["r"] is None).table
    assert t.kind_of("r") == "real"
    out = verb(t)
    out = getattr(out, "table", out)
    assert out.nrows and out.column(column).count(None) == out.nrows
    assert out.kind_of(column) == "real"
    rolled = roll_by_key(out, column, "slide", "sum", 2)
    assert rolled.kind_of(f"{column}_slide") == "real"


def test_key_column_left_all_missing_gets_its_note():
    t = build({"k": ["a", None, None], "t": [1, 1, 2]}, "t", ("k",))
    assert t.notes == ()
    out = tfilter(t, lambda r: r["k"] is None).table
    assert out.notes == ("key column 'k' is entirely missing; treated as one level",)
    assert_matches_build(out)


def test_filter_turns_daily_into_every_other_day():
    t = build({"t": [tp.day(2020, 1, d) for d in range(1, 9)], "v": list(range(8))}, "t")
    assert t.interval.shorthand() == "[1D]"
    out = tfilter(t, lambda r: r["v"] % 2 == 0).table
    assert out.interval.shorthand() == "[2D]"
    assert_matches_build(out)


def test_build_rejects_a_nan_key():
    # NaN compares false both ways, so it could neither sort nor tell two
    # series apart; build names the column and the source row instead.
    with pytest.raises(SchemaError, match=r"key column 'k' holds NaN at row 1"):
        build({"k": [1.0, math.nan, 0.5], "t": [1, 1, 1]}, "t", ("k",))
    # A verb writing NaN into a key goes through build and is refused too.
    t = build({"k": ["a", "b"], "t": [1, 1]}, "t", ("k",))
    with pytest.raises(SchemaError, match=r"key column 'k' holds NaN at row 1"):
        mutate(t, k=lambda r: math.nan if r["k"] == "b" else 1.0)
    # NaN in a measure column is an ordinary cell.
    assert build({"k": [1.0, 0.5], "v": [math.nan, 1.0], "t": [1, 1]}, "t", ("k",)).nrows == 2


def test_duplicates_rejects_a_nan_key():
    # Two NaN cells on one day used to pass as two distinct series.
    with pytest.raises(SchemaError, match=r"key column 'k' holds NaN at row 0"):
        duplicates({"k": [math.nan, math.nan], "t": [1, 1]}, "t", ("k",))


class EvenAdapter(IndexAdapter):
    """Claims even integers only."""

    name = "even"
    unit_label = "ev"
    sample_values = (2, 4)

    def to_ticks(self, value):
        if not isinstance(value, int) or value % 2:
            raise TypeError(f"not even: {value!r}")
        return value

    def from_ticks(self, ticks):
        return ticks


class LoudEvenAdapter(EvenAdapter):
    """Claims even integers too, under the same name but another unit label."""

    unit_label = "EV"


@pytest.fixture(params=["unregistered", "replaced", "registered_later"])
def kept_index(request):
    """A two-series table on index 2, 4, 8 and 10, 12 (interval 2, one gap)
    whose adapter the registry no longer gives back: an even-int adapter
    since unregistered, or replaced under its name, or an ordinal index with
    the even-int adapter registered only after the build."""
    raw = {"k": ["a", "a", "a", "b", "b"], "t": [2, 4, 8, 10, 12],
           "v": [1, 2, 3, 4, 5], "w": [5, 4, 3, 2, 1]}
    try:
        if request.param == "registered_later":
            t = build(raw, "t", ("k",))
            register_index_adapter(EvenAdapter())
            assert type(t.adapter) is OrdinalIndex
            assert type(build(raw, "t", ("k",)).adapter) is EvenAdapter
        else:
            register_index_adapter(EvenAdapter())
            t = build(raw, "t", ("k",))
            assert type(t.adapter) is EvenAdapter
            if request.param == "unregistered":
                unregister_index_adapter("even")
            else:
                register_index_adapter(LoudEvenAdapter())
        yield t
    finally:
        unregister_index_adapter("even")


def _float_key(t):
    # build refuses NaN in a key, so the float key that once held NaN now
    # holds 0.5 for "b": a key rewrite that re-sorts the series.
    return mutate(t, k=lambda r: 0.5 if r["k"] == "b" else 1.0).table


KEEPING_VERBS = {
    "filter": lambda t: tfilter(t, lambda r: r["t"] > 2),
    "filter_to_zero_rows": lambda t: tfilter(t, lambda r: False),
    "filter_on_nan_key": lambda t: tfilter(_float_key(t), lambda r: r["k"] == r["k"] and r["t"] > 2),
    "select_keeping_key": lambda t: select(t, ["k", "t", "v"]),
    "select_dropping_key": lambda t: select(t, ["t", "v"]),
    "mutate_measure": lambda t: mutate(t, v=lambda r: -r["v"]),
    "mutate_key": lambda t: mutate(t, k=lambda r: r["k"].upper()),
    "transmute_key": lambda t: transmute(t, k=lambda r: r["k"] * 2),
    "left_join": lambda t: join(t, {"k": ["a"], "x": [1]}, "left", by=["k"]),
    "fill_gaps": fill_gaps,
    "roll_by_key": lambda t: roll_by_key(fill_gaps(t), "v", "slide", len, 1),
    "summarize": lambda t: summarize(t, s=("sum", "v")),
    "summarize_grouped": lambda t: summarize(group_by(t, "k"), s=("sum", "v")),
    "summarize_by_same_index": lambda t: summarize(index_by(t, Granularity.ORDINAL), s=("sum", "v")),
    "gather": lambda t: gather(t, "name", "value", ["v", "w"]),
    "spread": lambda t: spread(gather(t, "name", "value", ["v", "w"]).table, "name", "value"),
}


@pytest.mark.parametrize("verb", KEEPING_VERBS.values(), ids=KEEPING_VERBS.keys())
def test_verbs_keep_the_table_adapter(kept_index, verb):
    # Every index cell of these results comes from the table or from its
    # adapter's from_ticks, so the result keeps that adapter, whatever the
    # registry holds now.
    out = verb(kept_index)
    out = getattr(out, "table", out)
    assert out.adapter is kept_index.adapter
    if out.interval.is_regular:
        assert out.interval.unit_label == kept_index.adapter.unit_label


@pytest.mark.parametrize("kind", ["left", "inner"])
def test_fan_out_join_reports_duplicates_on_the_kept_adapter(kept_index, kind):
    with pytest.raises(DuplicateIndexError):
        join(kept_index, {"k": ["a", "a"], "x": [1, 2]}, kind, by=["k"])


NEW_INDEX_VERBS = {
    "mutate_index": lambda t: mutate(t, i=lambda r: r["i"] + 4),
    "transmute_index": lambda t: transmute(t, i=lambda r: r["i"] + 4),
    "right_join": lambda t: join(t, {"i": [6, 8], "w": [1, 2]}, "right", by=["i"]),
    "full_join": lambda t: join(t, {"i": [6, 8], "w": [1, 2]}, "full", by=["i"]),
}


@pytest.mark.parametrize("verb", NEW_INDEX_VERBS.values(), ids=NEW_INDEX_VERBS.keys())
def test_new_index_cells_resolve_their_adapter_from_values(verb):
    raw = {"i": [2, 4], "v": [1, 2]}
    ordinal = build(raw, "i")
    register_index_adapter(EvenAdapter())
    try:
        out = verb(ordinal).table
        assert type(out.adapter) is EvenAdapter
        assert out.interval.shorthand() == "[2ev]"
        even = build(raw, "i")
    finally:
        unregister_index_adapter("even")
    out = verb(even).table
    assert type(out.adapter) is OrdinalIndex
    assert out.interval.shorthand() == "[2]"


def test_left_join_with_duplicated_right_key_goes_through_resort(monkeypatch):
    t = build({"k": ["a", "b"], "t": [1, 1], "v": [1, 2]}, "t", ("k",))
    calls = []
    real_resort = table.resort

    def spy(out):
        calls.append((out.index, out.key))
        return real_resort(out)

    monkeypatch.setattr(table, "resort", spy)
    with pytest.raises(DuplicateIndexError):
        join(t, {"k": ["a", "a"], "w": [10, 20]}, "left", by=["k"])
    assert calls == [("t", ("k",))]


# Each verb, and the constructors it reaches: ``build`` types cells from
# outside and ends in ``resort``; ``take`` and ``with_columns`` reach neither.
_OUTSIDE_RIGHT = {"t": [1, 5], "x": [7, 8]}


def _fan_out_join(t):
    # Each copy of a left row repeats its (key, index) pair.
    with pytest.raises(DuplicateIndexError):
        join(t, {"k1": ["a", "a"], "x": [1, 2]}, "left")


CONSTRUCTORS_REACHED = {
    "filter": (lambda t: tfilter(t, lambda r: r["v"] > 1), []),
    "semi_join": (lambda t: join(t, {"k1": ["a"]}, "semi"), []),
    "left_join": (lambda t: join(t, {"k1": ["a"], "x": [1]}, "left"), []),
    "inner_join": (lambda t: join(t, {"k1": ["a"], "x": [1]}, "inner"), []),
    "select_keeping_the_key": (lambda t: select(t, ["k1", "k2", "v"]), []),
    "mutate_measure": (lambda t: mutate(t, v=0), []),
    "select_dropping_a_key": (lambda t: select(t, ["k2", "t", "v"]), ["resort"]),
    "mutate_key": (lambda t: mutate(t, k2=lambda r: r["k2"] * 10), ["resort"]),
    "transmute_key": (lambda t: transmute(t, k2=lambda r: -r["k2"]), ["resort"]),
    "gather": (lambda t: gather(t, "name", "value", ["v", "w"]), ["resort"]),
    "spread": (lambda t: spread(t, "k1", "v"), ["resort"]),
    "summarize": (lambda t: summarize(group_by(t, "k1"), n=("sum", "v")), ["resort"]),
    "summarize_index_by": (
        lambda t: summarize(index_by(t, lambda i: i // 2), n=("sum", "v")), ["resort"]),
    "mutate_index": (lambda t: mutate(t, t=lambda r: r["t"] + 1), ["build", "resort"]),
    "transmute_index": (lambda t: transmute(t, t=lambda r: r["t"] * 2), ["build", "resort"]),
    "right_join": (lambda t: join(t, _OUTSIDE_RIGHT, "right", by=["t"]), ["build", "resort"]),
    "full_join": (lambda t: join(t, _OUTSIDE_RIGHT, "full", by=["t"]), ["build", "resort"]),
    "fan_out_join": (_fan_out_join, ["resort"]),
}


@pytest.mark.parametrize(
    "verb, reached", CONSTRUCTORS_REACHED.values(), ids=CONSTRUCTORS_REACHED.keys())
def test_only_cells_from_outside_reach_build(monkeypatch, verb, reached):
    t = build({"k1": ["a", "a", "b", "b"], "k2": [1, 2, 1, 2], "t": [1, 1, 2, 2],
               "v": [1, 2, 3, 4], "w": [5, 6, 7, 8]}, "t", ("k1", "k2"))
    calls = []

    def spying(name):
        real = getattr(table, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return spy

    for name in ("build", "resort"):
        monkeypatch.setattr(table, name, spying(name))
    out = verb(t)
    assert calls == reached
    monkeypatch.undo()
    if out is not None:
        assert_matches_build(getattr(out, "table", out))


def test_mutate_overwriting_a_key_column_still_raises_on_duplicates():
    t = build({"k": ["a", "b"], "t": [1, 1], "v": [1, 2]}, "t", ("k",))
    with pytest.raises(DuplicateIndexError):
        mutate(t, k="a")


def test_suite_validates_every_verb_result(monkeypatch):
    """A constructor that stores a wrong interval is caught by the suite-wide
    validate_table wrapper, without the test asking for it."""
    t = build({"t": [1, 2, 4], "v": [1, 2, 3]}, "t")

    def wrong_interval(t, rows):
        out = table.take(t, rows)
        out.interval = Interval.regular(Granularity.ORDINAL, 5)
        return out

    monkeypatch.setattr(verbs, "take", wrong_interval)
    for verb in (tfilter, verbs.filter):
        with pytest.raises(ValidityError):
            verb(t, lambda r: True)
