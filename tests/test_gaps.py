import random
import statistics
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from temporaltable import (
    Aggregate,
    Column,
    GapError,
    Granularity,
    SchemaError,
    TemporalTable,
    UnsupportedOperationError,
    aggregates,
    build,
    count_gaps,
    fill_gaps,
    group_by,
    has_gaps,
    index_by,
    key_groups,
    register_index_adapter,
    require_gapless,
    scan_gaps,
    summarize,
    table,
    timepoint as tp,
    unregister_index_adapter,
)
from temporaltable.table import Grouping, as_kind, cell_kind, common_kind
from temporaltable.timepoint import TimePoint
from conftest import assert_same_table, table_rows
from test_adapters import SemesterAdapter


@pytest.fixture
def holey():
    # A misses 3, 4, 7, 8; B is complete over its own span.
    return build(
        {
            "k": ["A"] * 5 + ["B"] * 3,
            "t": [1, 2, 5, 6, 9, 2, 3, 4],
            "v": [10.0, 20.0, 50.0, 60.0, 90.0, 2.0, 3.0, 4.0],
        },
        "t",
        ("k",),
    )


def test_has_gaps(holey):
    assert has_gaps(holey) == [(("A",), True), (("B",), False)]


def test_scan_gaps_lists_each_missing_point(holey):
    assert scan_gaps(holey) == [
        (("A",), 3),
        (("A",), 4),
        (("A",), 7),
        (("A",), 8),
    ]


def test_count_gaps_merges_runs(holey):
    report = count_gaps(holey)
    assert report.entries == [
        (("A",), 3, 4, 2),
        (("A",), 7, 8, 2),
    ]
    assert report.total() == len(scan_gaps(holey))
    assert report.key_names == ("k",)
    assert report.index_name == "t"


def test_full_extends_to_global_span(holey):
    # Globally ticks run 1..9, so B additionally misses 1 and 5..9.
    assert scan_gaps(holey, full=True) == [
        (("A",), 3),
        (("A",), 4),
        (("A",), 7),
        (("A",), 8),
        (("B",), 1),
        (("B",), 5),
        (("B",), 6),
        (("B",), 7),
        (("B",), 8),
        (("B",), 9),
    ]


def test_full_respects_tick_phase():
    # With a step of 2, each key's grid keeps its own offset so that the
    # observed points stay on-grid.
    t = build(
        {
            "k": ["A", "A", "A", "B", "B"],
            "t": [0, 2, 8, 1, 9],
            "v": [1, 2, 3, 4, 5],
        },
        "t",
        ("k",),
    )
    assert t.interval.shorthand() == "[2]"
    assert scan_gaps(t, full=True) == [
        (("A",), 4),
        (("A",), 6),
        (("B",), 3),
        (("B",), 5),
        (("B",), 7),
    ]
    filled = fill_gaps(t, full=True)
    assert scan_gaps(filled, full=True) == []
    assert filled.interval.shorthand() == "[2]"


def test_gaps_with_year_index():
    t = build(
        {"y": [tp.year(2010), tp.year(2013), tp.year(2014)], "v": [1, 2, 3]},
        "y",
    )
    assert scan_gaps(t) == [((), tp.year(2011)), ((), tp.year(2012))]
    report = count_gaps(t)
    assert len(report) == 1
    kt, frm, to, n = report.entries[0]
    assert (frm.render(), to.render(), n) == ("2011", "2012", 2)


def test_fill_defaults_to_missing_markers(holey):
    filled = fill_gaps(holey)
    assert filled.nrows == holey.nrows + 4
    assert has_gaps(filled) == [(("A",), False), (("B",), False)]
    new = [r for r in table_rows(filled) if r["t"] in (3, 4, 7, 8) and r["k"] == "A"]
    assert all(r["v"] is None for r in new)


def test_fill_with_constant(holey):
    filled = fill_gaps(holey, {"v": 0.0})
    new = [r for r in table_rows(filled) if r["k"] == "A" and r["t"] in (3, 4, 7, 8)]
    assert [r["v"] for r in new] == [0.0, 0.0, 0.0, 0.0]


def test_fill_int_constant_into_real_column(holey):
    filled = fill_gaps(holey, {"v": 0})
    assert filled.kind_of("v") == "real"
    assert [r["v"] for r in table_rows(filled) if r["k"] == "A" and r["t"] == 3] == [0.0]


def test_fill_with_aggregate_uses_key_local_pool(holey):
    filled = fill_gaps(holey, {"v": Aggregate("mean")})
    # A's observed values are 10, 20, 50, 60, 90.
    new = [r["v"] for r in table_rows(filled) if r["k"] == "A" and r["t"] in (3, 4)]
    assert new == [46.0, 46.0]


def test_fill_aggregate_declares_its_kind():
    # An int column filled with a mean holds reals, gaps or not.
    for ts in ([1, 2, 4], [1, 2, 3]):
        t = build({"t": ts, "v": [1, 2, 3], "s": ["a", "b", "c"]}, "t")
        filled = fill_gaps(t, {"v": Aggregate("mean"), "s": Aggregate("max")})
        assert filled.schema == [("t", "int"), ("v", "real"), ("s", "text")]
    assert fill_gaps(t, {"v": Aggregate("max")}).kind_of("v") == "int"


def test_fill_gives_a_column_with_no_present_cell_the_kind_of_its_fill():
    t = build({"k": ["a", "a", "a"], "d": [1, 2, 4], "v": [None, None, None]}, "d", ("k",))
    assert t.kind_of("v") is None
    filled = fill_gaps(t, {"v": 0})
    assert (filled.column("v"), filled.kind_of("v")) == ([None, None, 0, None], "int")
    filled = fill_gaps(t, {"v": Aggregate("mean")})
    assert (filled.column("v"), filled.kind_of("v")) == ([None] * 4, "real")
    assert fill_gaps(t).kind_of("v") is None
    # A policy whose cells the column cannot hold is refused, naming it.
    text = build({"d": [1, 3], "s": ["a", "b"]}, "d")
    with pytest.raises(SchemaError, match=r"filling column 's' mixes cell kinds: \['real', 'text'\]"):
        fill_gaps(text, {"s": Aggregate("mean")})


@pytest.mark.parametrize("spec, message", [
    (5, "aggregate spec must be text, got 5"),
    ("quantile", "quantile needs a probability"),
    ("quantile:x", "bad quantile probability 'x'"),
])
def test_aggregate_policy_refuses_a_bad_spec(spec, message):
    with pytest.raises(SchemaError, match=message):
        Aggregate(spec)


def test_fill_rejects_wrong_kind_constant(holey):
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"v": "zero"})
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"nope": 0.0})
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"k": "A"})
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"t": 5})


@pytest.mark.parametrize("policy", [0, None, Aggregate("mean")])
def test_fill_names_a_column_the_table_lacks_as_the_table_does(holey, policy):
    with pytest.raises(SchemaError, match="^no column named 'nosuch'$"):
        fill_gaps(holey, {"nosuch": policy})


def test_a_report_is_true_exactly_when_it_lists_something(holey):
    complete = build({"t": [1, 2], "v": [1, 2]}, "t")
    for report in (count_gaps(holey), count_gaps(complete),
                   table.duplicates({"t": [1, 1, 2]}, "t"), table.duplicates({"t": [1, 2]}, "t")):
        assert bool(report) == (len(report) > 0)
    assert [bool(count_gaps(holey)), bool(table.duplicates({"t": [1, 1]}, "t"))] == [True, True]


def test_fill_preserves_existing_rows(holey):
    filled = fill_gaps(holey, {"v": Aggregate("max")})
    old = {(r["k"], r["t"], r["v"]) for r in table_rows(holey)}
    now = {(r["k"], r["t"], r["v"]) for r in table_rows(filled)}
    assert old <= now
    assert len(now) == len(old) + 4


def test_fill_is_idempotent(holey):
    once = fill_gaps(holey, {"v": 7.5})
    assert_same_table(fill_gaps(once, {"v": 7.5}), once)
    full_once = fill_gaps(holey, full=True)
    assert_same_table(fill_gaps(full_once, full=True), full_once)


def test_irregular_tables_refuse_gap_analysis():
    t = build({"t": [1, 2, 5], "v": [1, 2, 3]}, "t", regular=False)
    assert t.interval.shorthand() == "[!]"
    for fn in (has_gaps, scan_gaps, count_gaps, fill_gaps):
        with pytest.raises(UnsupportedOperationError):
            fn(t)


def test_unknown_interval_refuses_gap_analysis():
    t = build({"t": [5], "v": [1]}, "t")
    assert t.interval.shorthand() == "[?]"
    with pytest.raises(UnsupportedOperationError):
        has_gaps(t)


def test_require_gapless(holey):
    first_run = r"key \('A',\) misses 3 \.\. 4 \(2 points\)\); run fill_gaps"
    with pytest.raises(GapError, match=first_run):
        require_gapless(holey)
    require_gapless(fill_gaps(holey))
    require_gapless(build({"t": [1, 2, 5], "v": [1, 2, 3]}, "t", regular=False))


def test_single_row_series_has_no_gaps():
    t = build({"t": [tp.year(2011)], "k": ["A"], "v": [1]}, "t", ("k",))
    # Interval is unknown with one observation, so force a multi-key table.
    t2 = build(
        {"t": [tp.year(2011), tp.year(2011), tp.year(2012)], "k": ["A", "B", "B"], "v": [1, 2, 3]},
        "t",
        ("k",),
    )
    assert has_gaps(t2) == [(("A",), False), (("B",), False)]
    assert scan_gaps(t2, full=True) == [(("A",), tp.year(2012))]
    assert t.interval.shorthand() == "[?]"


def test_random_fill_round_trip():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.choice([1, 2, 3])
        keys = ["A", "B", "C"][: rng.randrange(1, 4)]
        cols = {"k": [], "t": [], "v": []}
        base = rng.randrange(0, 5)
        for k in keys:
            offset = base + rng.randrange(0, 4)
            picks = sorted(rng.sample(range(8), rng.randrange(2, 7)))
            # Adjacent pair keeps the inferred multiple equal to m.
            j = rng.randrange(len(picks) - 1)
            picks[j + 1] = picks[j] + 1
            picks = sorted(set(picks))
            for p in picks:
                cols["k"].append(k)
                cols["t"].append(offset + p * m)
                cols["v"].append(rng.random())
        t = build(cols, "t", ("k",))
        if t.interval.multiple != m:
            continue
        for full in (False, True):
            filled = fill_gaps(t, full=full)
            assert all(not flag for _, flag in has_gaps(filled, full=full))
            assert count_gaps(t, full=full).total() == len(scan_gaps(t, full=full))
            assert filled.nrows == t.nrows + len(scan_gaps(t, full=full))
            assert_same_table(fill_gaps(filled, full=full), filled)


def test_gap_error_names_the_first_missing_run():
    days = [tp.day(2020, 12, 31), tp.day(2021, 1, 1), tp.day(2020, 12, 31), tp.day(2021, 1, 31)]
    t = build({"k": ["a", "a", "b", "b"], "d": days, "v": [1, 2, 3, 4]}, "d", ("k",))
    with pytest.raises(GapError) as info:
        require_gapless(t)
    assert str(info.value) == (
        "1 key(s) have implicit gaps (first: key ('b',) misses 2021-01-01 .. 2021-01-30 "
        "(30 points)); run fill_gaps first"
    )


def test_gap_checks_cost_per_observation_not_per_missing_tick():
    # Series b misses 10**6 ticks; a grid of its expected ticks would take
    # tens of MB.
    t = build({"k": ["a", "a", "b", "b"], "t": [0, 1, 0, 10**6 + 1], "v": [1, 2, 3, 4]},
              "t", ("k",))
    tracemalloc.start()
    try:
        assert has_gaps(t) == [(("a",), False), (("b",), True)]
        assert count_gaps(t).entries == [(("b",), 1, 10**6, 10**6)]
        with pytest.raises(GapError, match="misses 1 .. 1000000"):
            require_gapless(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _grid_model(t, full):
    """Per key: (key tuple, sorted missing ticks), by listing each series'
    whole grid of expected ticks and keeping those not observed."""
    m = t.interval.multiple
    ticks = t.ticks()
    glo, ghi = min(ticks), max(ticks)
    out = []
    for kt, r in key_groups(t):
        observed = ticks[r.start : r.stop]
        have = set(observed)
        lo = glo + (observed[0] - glo) % m if full else observed[0]
        hi = ghi if full else observed[-1]
        out.append((kt, [tk for tk in range(lo, hi + 1, m) if tk not in have]))
    return out


def _model_runs(missing, m):
    runs = []
    for tk in missing:
        if runs and tk - runs[-1][-1] == m:
            runs[-1].append(tk)
        else:
            runs.append([tk])
    return runs


def _model_fill(cells, policy):
    pool = [c for c in cells if c is not None]
    if policy == "mean":
        return statistics.fmean(pool) if pool else None
    if policy == "max":
        return max(pool) if pool else None
    return policy


@st.composite
def _gappy_tables(draw):
    step = draw(st.integers(1, 3))
    days = draw(st.booleans())
    base = draw(st.integers(-6, 6))
    cols = {"k": [], "t": [], "v": [], "s": []}
    for k in "ABC"[: draw(st.integers(1, 3))]:
        phase = draw(st.integers(0, step - 1))
        slots = draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
        for slot in sorted(slots):
            tk = base + phase + slot * step
            cols["k"].append(k)
            cols["t"].append(TimePoint(tk, Granularity.DAY) if days else tk)
            cols["v"].append(draw(st.none() | st.integers(-50, 50)))
            cols["s"].append(draw(st.none() | st.sampled_from("xyz")))
    cols["v"] = Column("int", cols["v"])
    cols["s"] = Column("text", cols["s"])
    return build(cols, "t", ("k",))


@given(_gappy_tables(), st.booleans(), st.data())
def test_gap_verbs_match_a_grid_of_expected_ticks(t, full, data):
    assume(t.interval.is_regular)
    m = t.interval.multiple
    model = _grid_model(t, full)
    cell = t.adapter.from_ticks

    assert has_gaps(t, full) == [(kt, bool(missing)) for kt, missing in model]
    assert scan_gaps(t, full) == [(kt, cell(tk)) for kt, missing in model for tk in missing]
    report = count_gaps(t, full)
    assert (report.key_names, report.index_name) == (("k",), "t")
    assert report.entries == [
        (kt, cell(run[0]), cell(run[-1]), len(run))
        for kt, missing in model
        for run in _model_runs(missing, m)
    ]

    policies = {
        "v": data.draw(st.sampled_from([None, 0, "mean", "max"])),
        "s": data.draw(st.sampled_from([None, "w", "max"])),
    }
    fills = {c: Aggregate(p) if p in ("mean", "max") else p for c, p in policies.items()}
    rows = table_rows(t)
    for (kt, missing), (_, r) in zip(model, key_groups(t)):
        filled = {c: _model_fill([t.column(c)[i] for i in r], p) for c, p in policies.items()}
        rows += [{"k": kt[0], "t": cell(tk), **filled} for tk in missing]
    rows.sort(key=lambda row: (row["k"], t.adapter.to_ticks(row["t"])))
    assert table_rows(fill_gaps(t, fills, full)) == rows


# --- fill_gaps splices: the table build makes of the same rows, without build

# (lowest tick, index cell of a tick): an ordinal index, days, Melbourne
# hours across the 2021-04-04 fall-back (UTC hours 449294-449298), and the
# registered Semester adapter.
INDEXES = {
    "ordinal": (-4, lambda tk: tk),
    "day": (18_990, lambda tk: TimePoint(tk, Granularity.DAY)),
    "zoned hour": (449_288, lambda tk: TimePoint(tk, Granularity.HOUR, "Australia/Melbourne")),
    "semester": (4_036, SemesterAdapter().from_ticks),
}

# Per measured column: its kind, and the fill policies drawn for it (None is
# a missing marker; a column left out of the fills gets one too).
POLICIES = {
    "v": ("int", [None, -3, Aggregate("mean"), Aggregate("max"), Aggregate("sum"),
                  Aggregate("count"), Aggregate("quantile:0.5")]),
    "x": ("real", [None, 1.5, 2, Aggregate("mean"), Aggregate("min"), Aggregate("sum")]),
    "s": ("text", [None, "gap", Aggregate("max"), Aggregate("min")]),
    # No present cell: the column takes the kind of its fill.
    "n": (None, [None, 0, 2.5, "gap", Aggregate("mean"), Aggregate("count"), Aggregate("max")]),
}


def _draw_gappy(data, index):
    """A regular table on ``INDEXES[index]`` keyed by (k, j), whose series
    may have gaps; build gets its rows in drawn order."""
    base, cell = INDEXES[index]
    step = data.draw(st.integers(1, 3))
    keys = data.draw(st.lists(st.tuples(st.sampled_from(["A", "B", None]), st.integers(0, 1)),
                              min_size=1, max_size=4, unique=True))
    rows = []
    for k, j in keys:
        phase = data.draw(st.integers(0, step - 1))
        for slot in data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=6)):
            rows.append({
                "k": k, "j": j, "t": cell(base + phase + slot * step),
                "v": data.draw(st.none() | st.integers(-50, 50)),
                "x": data.draw(st.none() | st.integers(-5, 5) | st.floats(-1e6, 1e6)),
                "s": data.draw(st.none() | st.sampled_from("xyz")),
                "n": None,
            })
    t = build(
        {"k": [r["k"] for r in rows], "j": [r["j"] for r in rows], "t": [r["t"] for r in rows],
         **{c: Column(kind, [r[c] for r in rows]) for c, (kind, _) in POLICIES.items()}},
        "t", ("k", "j"),
    )
    assume(t.interval.is_regular)
    return t


def _filled_by_build(t, fills, full, shuffle):
    """What fill_gaps should give: ``build`` over the rows of ``t`` and one
    new row per missing index value, put in the order ``shuffle`` gives,
    on the adapter of ``t`` and with the kinds fill_gaps declares."""
    kinds = dict(t.schema)
    for col, policy in fills.items():
        if isinstance(policy, Aggregate):
            agg = aggregates.parse_spec(policy.spec)[0]
            kinds[col] = common_kind((kinds[col], aggregates.result_kind(agg, kinds[col])))
        else:
            kinds[col] = common_kind((kinds[col], cell_kind(policy)))
    series = dict(key_groups(t))
    rows = table_rows(t)
    for kt, cell in scan_gaps(t, full):
        r = series[kt]
        row = {**dict.fromkeys(t.columns), **dict(zip(t.key, kt)), t.index: cell}
        for col, policy in fills.items():
            if isinstance(policy, Aggregate):
                row[col] = aggregates.apply(policy.spec, t.column(col)[r.start : r.stop])
            elif policy is not None:
                row[col] = as_kind(policy, kinds[col])
        rows.append(row)
    rows = shuffle(rows)
    data = {name: Column(kinds[name], [row[name] for row in rows]) for name in t.columns}
    return build(data, t.index, t.key, t.declared_regular, adapter=t.adapter)


@given(st.sampled_from(sorted(INDEXES)), st.booleans(), st.data())
def test_fill_gaps_is_the_table_build_makes_of_its_rows(index, full, data):
    register_index_adapter(SemesterAdapter())
    try:
        t = _draw_gappy(data, index)
        fills = {c: data.draw(st.sampled_from(ps)) for c, (_, ps) in POLICIES.items()}
        fills = {c: p for c, p in fills.items() if data.draw(st.booleans())}
        got = fill_gaps(t, fills, full)
        want = _filled_by_build(t, fills, full, lambda rows: data.draw(st.permutations(rows)))
    finally:
        unregister_index_adapter("semester")
    assert got.nrows == t.nrows + len(scan_gaps(t, full))
    assert list(got.columns) == list(want.columns)
    for field in TemporalTable.__slots__:
        assert getattr(got, field) == getattr(want, field), field


class CountedSemesterAdapter(SemesterAdapter):
    """Semesters that record each tick :meth:`from_ticks` is asked for."""

    name = "counted semester"

    def __init__(self):
        self.calls = []

    def from_ticks(self, ticks):
        self.calls.append(ticks)
        return super().from_ticks(ticks)


@given(st.booleans(), st.data())
def test_fill_gaps_makes_one_index_cell_per_distinct_new_tick(full, data):
    adapter = CountedSemesterAdapter()
    register_index_adapter(adapter)
    try:
        cols = {"k": [], "t": [], "v": []}
        for k in "ABCD"[: data.draw(st.integers(1, 4))]:
            for tk in sorted(data.draw(st.sets(st.integers(4_036, 4_045), min_size=1, max_size=6))):
                cols["k"].append(k)
                cols["t"].append(SemesterAdapter().from_ticks(tk))
                cols["v"].append(data.draw(st.none() | st.integers(-9, 9)))
        t = build({**cols, "v": Column("int", cols["v"])}, "t", ("k",))
        assume(t.interval.is_regular)
        adapter.calls.clear()
        got = fill_gaps(t, {"v": 0}, full)
    finally:
        unregister_index_adapter("counted semester")
    assert type(got.adapter) is CountedSemesterAdapter
    model = _grid_model(t, full)
    new = {(kt, tk) for kt, missing in model for tk in missing}
    # from_ticks once per distinct new tick; its cell is shared by every
    # series that misses that tick.
    assert sorted(adapter.calls) == sorted({tk for _, tk in new})
    cells = {}
    for i, tk in enumerate(got.ticks()):
        if (got.key_tuple(i), tk) in new:
            cell = cells.setdefault(tk, got.column("t")[i])
            assert cell is got.column("t")[i]
            assert cell == SemesterAdapter().from_ticks(tk)
    assert cells.keys() == {tk for _, tk in new}
    rows = table_rows(t) + [{"k": kt[0], "t": SemesterAdapter().from_ticks(tk), "v": 0}
                            for kt, tk in new]
    rows.sort(key=lambda row: (row["k"], row["t"].year, row["t"].sem))
    assert table_rows(got) == rows
    assert got.schema == t.schema
    assert got.ticks() == [2 * row["t"].year + row["t"].sem - 1 for row in rows]


def test_fill_gaps_makes_no_call_to_build(holey, monkeypatch):
    calls = []
    real_build = table.build
    monkeypatch.setattr(table, "build", lambda *a, **kw: calls.append(a) or real_build(*a, **kw))
    filled = fill_gaps(holey, {"v": Aggregate("mean")}, full=True)
    assert filled.nrows > holey.nrows
    assert calls == []


@pytest.fixture
def daily():
    # A misses the 3rd and 4th of January; B is complete.
    days = [1, 2, 5, 1, 2, 3]
    return build(
        {"k": ["A"] * 3 + ["B"] * 3, "t": [tp.day(2021, 1, d) for d in days],
         "v": [1, 2, 5, 10, 20, 30]},
        "t", ("k",),
    )


def test_fill_keeps_a_group_by_grouping(daily):
    grouped = group_by(daily, "k")
    filled = fill_gaps(grouped, {"v": 0})
    assert filled.nrows == daily.nrows + 2
    assert filled.groups == grouped.groups == Grouping(by=("k",))
    assert summarize(filled, n=("count", "v")).key == ("k",)


def test_fill_keeps_an_index_by_grouping(daily):
    monthly = index_by(group_by(daily, "k"), "month")
    filled = fill_gaps(monthly, {"v": 0})
    assert filled.groups == monthly.groups == Grouping(("k",), "month", Granularity.MONTH)
    assert summarize(filled, n=("count", "v")).column("n") == [5, 3]
