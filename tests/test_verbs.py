import math
import statistics
from decimal import Decimal
from enum import IntEnum

import pytest
from hypothesis import example, given, strategies as st

from temporaltable import (
    ConversionError,
    DuplicateIndexError,
    Granularity,
    IndexAdapter,
    MissingIndexError,
    ParseError,
    PreconditionError,
    SchemaError,
    ValidityError,
    VerbOutcome,
    Window,
    aggregates,
    arrange,
    build,
    fill_gaps,
    filter_index,
    floor_to,
    gather,
    group_by,
    group_by_key,
    index_by,
    join,
    key_groups,
    mutate,
    register_index_adapter,
    roll_by_key,
    select,
    spread,
    summarize,
    timepoint as tp,
    transmute,
    unregister_index_adapter,
    validate_table,
)
from temporaltable import filter as tfilter
from temporaltable.table import Grouping, cell_kind, common_kind, replace
from conftest import assert_same_table, table_rows
from test_adapters import Semester, SemesterAdapter


# --- filter -----------------------------------------------------------------


def test_filter_rows(tb):
    out, warnings = tfilter(tb, lambda r: r["gender"] == "Female")
    assert warnings == ()
    assert out.nrows == 6
    assert len(key_groups(out)) == 3
    assert set(out.column("gender")) == {"Female"}
    validate_table(out)


def test_filter_composition_is_conjunction(tb):
    a = tfilter(tfilter(tb, lambda r: r["gender"] == "Male").table,
                lambda r: r["count"] > 100).table
    b = tfilter(tb, lambda r: r["gender"] == "Male" and r["count"] > 100).table
    assert_same_table(a, b)


def test_filter_reinfers_interval():
    t = build({"y": [tp.year(y) for y in (2011, 2012, 2013, 2014)], "v": [1, 2, 3, 4]}, "y")
    assert t.interval.shorthand() == "[1Y]"
    coarse = tfilter(t, lambda r: r["y"].ticks % 2 == 1).table
    assert coarse.interval.shorthand() == "[2Y]"
    empty = tfilter(t, lambda r: False).table
    assert empty.nrows == 0
    assert empty.interval.shorthand() == "[?]"


def test_filter_unknown_column_mentions_name(tb):
    with pytest.raises(SchemaError, match="^predicate references unknown column 'wrong'$") as info:
        tfilter(tb, lambda r: r["wrong"] > 0)
    assert isinstance(info.value.__cause__, KeyError)


def test_a_derivation_reading_an_unknown_column_names_it(tb):
    with pytest.raises(SchemaError, match="^column 'w' references unknown column 'nope'$") as info:
        mutate(tb, w=lambda r: r["nope"])
    assert isinstance(info.value.__cause__, KeyError)


@pytest.mark.parametrize("verb", [tfilter, lambda t, f: mutate(t, w=f)], ids=["filter", "mutate"])
def test_a_bare_key_error_in_row_code_propagates_unchanged(verb):
    error = KeyError()

    def raises(row):
        raise error

    with pytest.raises(KeyError) as info:
        verb(build({"t": [1, 2], "v": [1, 2]}, "t"), raises)
    assert info.value is error


def test_a_missed_lookup_in_the_callers_mapping_propagates_unchanged():
    rates = {"a": 1}
    with pytest.raises(KeyError) as info:
        mutate(build({"t": [1, 2], "v": [1, 2]}, "t"), w=lambda r: rates[r["v"]])
    assert info.value.args == (1,)


@pytest.mark.parametrize("verb", [tfilter, lambda t, f: mutate(t, w=f)], ids=["filter", "mutate"])
def test_a_key_error_naming_a_column_propagates_unchanged(verb):
    # "v" is a column, so the row did not raise it: some other mapping did.
    labels = {}
    with pytest.raises(KeyError) as info:
        verb(build({"t": [1, 2], "v": [1, 2]}, "t"), lambda r: labels["v"])
    assert info.value.args == ("v",)


@pytest.mark.parametrize(
    "verb",
    [tfilter, lambda t, f: mutate(t, w=f, x=lambda r: r["w"]), lambda t, f: transmute(t, w=f)],
    ids=["filter", "mutate", "transmute"],
)
def test_stop_iteration_in_row_code_propagates(verb):
    # It must not end the loop over the rows early, as an iterator
    # consuming the row code would take it to: that drops rows from a
    # filter and leaves a derived column shorter than the table.
    error = StopIteration()

    def stops_on_the_second_row(row):
        if row["t"] == 2:
            raise error
        return True

    with pytest.raises(StopIteration) as info:
        verb(build({"t": [1, 2, 3], "v": [1, 2, 3]}, "t"), stops_on_the_second_row)
    assert info.value is error


def test_a_predicate_that_changes_its_row_changes_nothing_else():
    t = build({"t": [1, 2, 3], "v": [10, 20, 30]}, "t")
    before = t.to_dict()
    seen = []

    def scribbles(row):
        seen.append(dict(row))
        row["v"] = -1
        row["w"] = 0
        return True

    out = tfilter(t, scribbles).table
    assert seen == [{"t": 1, "v": 10}, {"t": 2, "v": 20}, {"t": 3, "v": 30}]
    assert t.to_dict() == out.to_dict() == before


_EVERY_OTHER_DAY = {
    "filter": lambda t: tfilter(t, lambda r: r["v"] % 2 == 0),
    "semi_join": lambda t: join(t, {"v": [0, 2, 4, 6]}, "semi"),
    "anti_join": lambda t: join(t, {"v": [1, 3, 5, 7]}, "anti"),
    "inner_join": lambda t: join(t, {"v": [0, 2, 4, 6], "w": [1, 2, 3, 4]}, "inner"),
}


@pytest.mark.parametrize("verb", _EVERY_OTHER_DAY.values(), ids=_EVERY_OTHER_DAY.keys())
def test_a_subset_warns_when_the_interval_changes(verb):
    t = build({"d": [tp.day(2011, 1, d) for d in range(1, 9)], "v": list(range(8))}, "d")
    out, warnings = verb(t)
    assert out.column("v") == [0, 2, 4, 6]
    assert str(out.interval) == "[2D]"
    assert warnings == ("interval changed from [1D] to [2D]",)
    assert filter_index(t, "2011-01-02 ~ 2011-01-05").warnings == ()


# --- filter_index -----------------------------------------------------------


def test_filter_index_point(tb):
    out = filter_index(tb, "2011").table
    assert out.nrows == 6
    assert all(v.render() == "2011" for v in out.column("year"))


def test_filter_index_bounds(tb):
    assert filter_index(tb, "~ 2012").table.nrows == 12
    assert filter_index(tb, "2013 ~").table.nrows == 0
    assert filter_index(tb, "2011 ~ 2012").table.nrows == 12
    assert filter_index(tb, "2012 ~ 2013").table.nrows == 6


def test_filter_index_coarser_window_on_finer_index():
    days = [tp.day(2011, 7, d) for d in (1, 2, 30)] + [tp.day(2011, 8, 1)]
    t = build({"d": days, "v": [1, 2, 3, 4]}, "d")
    assert filter_index(t, "2011-07").table.nrows == 3
    assert filter_index(t, "2011-08 ~").table.nrows == 1
    assert filter_index(t, "2011").table.nrows == 4


def test_filter_index_finer_window_than_index_rejected():
    t = build({"d": [tp.day(2011, 7, 1)], "v": [1]}, "d")
    with pytest.raises(PreconditionError):
        filter_index(t, "2011-07-01 17:00")


def test_filter_index_ordinal():
    t = build({"t": [1, 2, 5, 6], "v": [1, 2, 3, 4]}, "t")
    assert filter_index(t, "2 ~ 5").table.nrows == 2
    assert filter_index(t, "6").table.nrows == 1
    with pytest.raises(ParseError):
        filter_index(t, "2011-07")


class _Steps(IndexAdapter):
    """An ordinal index an adapter supplies: cell ``"s<n>"`` is tick n."""

    name = "steps"
    unit_label = "st"
    sample_values = ("s0", "s1")

    def to_ticks(self, value):
        if not isinstance(value, str) or value[:1] != "s":
            raise ValueError(value)
        return int(value[1:])

    def from_ticks(self, ticks):
        return f"s{ticks}"


@pytest.mark.parametrize("adapter", [None, _Steps()], ids=["ints", "adapter"])
def test_filter_index_ordinal_endpoints_are_json_ints(adapter):
    # Plain int cells and an adapter's ordinal cells both read their
    # endpoints as ticks, by the JSON int grammar, as ingest does.
    ticks = [-2, 0, 5, 6, 10]
    cells = [f"s{n}" for n in ticks] if adapter else ticks
    t = build({"t": cells, "v": [1, 2, 3, 4, 5]}, "t", adapter=adapter)
    for text in ("+5", "1_0", "007", "\u0663", "+5 ~", "~ 1_0"):
        with pytest.raises(ParseError):
            filter_index(t, text)
    assert filter_index(t, "-2").table.column("v") == [1]
    assert filter_index(t, "0").table.column("v") == [2]
    assert filter_index(t, " 6 ").table.column("v") == [4]
    assert filter_index(t, "-2 ~ 5").table.column("v") == [1, 2, 3]


def test_filter_index_parse_errors(tb):
    with pytest.raises(ParseError):
        filter_index(tb, "2011 ~ 2012 ~ 2013")
    with pytest.raises(ParseError):
        filter_index(tb, "whenever")
    with pytest.raises(ParseError):
        filter_index(tb, "~")


def _run_of(first, n):
    """``n`` consecutive points from ``first``, at its granularity and zone."""
    return [tp.TimePoint(first.ticks + i, first.granularity, first.zone) for i in range(n)]


def test_filter_index_year_selects_366_days():
    t = build({"d": _run_of(tp.day(2011, 12, 1), 430)}, "d")
    days = filter_index(t, "2012").table.column("d")
    assert len(days) == 366
    assert (days[0], days[-1]) == (tp.day(2012, 1, 1), tp.day(2012, 12, 31))


def test_filter_index_quarter_selects_three_months():
    t = build({"m": _run_of(tp.month(2011, 1), 12)}, "m")
    assert filter_index(t, "2011 Q3").table.column("m") == _run_of(tp.month(2011, 7), 3)


def test_filter_index_hour_selects_60_minutes():
    t = build({"m": _run_of(tp.minute(2011, 7, 5, 16, 0), 180)}, "m")
    out = filter_index(t, "2011-07-05 17:00 ~ 2011-07-05 17:59").table
    assert out.column("m") == _run_of(tp.minute(2011, 7, 5, 17, 0), 60)
    assert {floor_to(m, Granularity.HOUR) for m in out.column("m")} == {tp.hour(2011, 7, 5, 17)}


def test_filter_index_new_york_dst_day_is_23_hours():
    # New York sprang forward on 2017-03-12: a 23-hour civil day.
    ny = "America/New_York"
    t = build({"m": _run_of(tp.minute(2017, 3, 11, 0, 0, zone=ny), 3 * 24 * 60)}, "m")
    out = filter_index(t, "2017-03-12").table
    assert out.column("m") == _run_of(tp.minute(2017, 3, 12, 0, 0, zone=ny), 23 * 60)


def test_filter_index_iso_week_selects_seven_days():
    t = build({"d": _run_of(tp.day(2011, 2, 1), 28)}, "d")
    assert filter_index(t, "2011 W07").table.column("d") == _run_of(tp.day(2011, 2, 14), 7)


@pytest.mark.parametrize("zone", [None, "Asia/Kolkata"])
def test_filter_index_rendered_hour_selects_its_row(zone):
    # An hour cell renders as "17:00" in UTC and as "22:30" in Kolkata
    # (UTC+05:30); both read back at the index's own granularity.
    t = build({"h": _run_of(tp.TimePoint(tp.hour(2011, 7, 5, 0).ticks, Granularity.HOUR, zone), 24),
               "v": list(range(24))}, "h")
    texts = [h.render() for h in t.column("h")]
    assert texts[17].endswith(":30" if zone else ":00")
    for i, text in enumerate(texts):
        assert filter_index(t, text).table.column("v") == [i]
    assert filter_index(t, f"{texts[3]} ~ {texts[5]}").table.column("v") == [3, 4, 5]
    with pytest.raises(PreconditionError, match="a minute window is finer than the hour index"):
        filter_index(t, texts[17][:-2] + ("00" if zone else "30"))


def test_filter_index_refuses_finer_or_calendar_windows():
    years = build({"y": _run_of(tp.year(2010), 3)}, "y")
    with pytest.raises(PreconditionError, match="finer"):
        filter_index(years, "2011-07")
    steps = build({"t": [3, 4, 5]}, "t")
    with pytest.raises(ParseError):
        filter_index(steps, "2011-07")
    with pytest.raises(ParseError):
        filter_index(build({"t": []}, "t"), "2011")


# --- arrange ----------------------------------------------------------------


_ARRANGE_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", None]),
        st.integers(0, 9),
        st.none() | st.integers(-2, 2) | st.floats() | st.just(math.nan),
        st.none() | st.sampled_from(["x", "y", ""]),
    ),
    unique_by=lambda cells: cells[:2],
    max_size=12,
)
_ARRANGE_SPEC = st.lists(
    st.tuples(st.sampled_from(["k", "t", "v", "w"]), st.sampled_from([None, "asc", "desc"])),
    max_size=4,
)


def _ascending_place(v):
    """Where a cell sorts ascending: cells by value, then NaN, then missing."""
    if v is None:
        return (2,)
    if isinstance(v, float) and math.isnan(v):
        return (1,)
    return (0, v)


@given(_ARRANGE_ROWS, _ARRANGE_SPEC)
def test_arrange_is_a_stable_multi_key_sort_of_the_rows(cells, spec):
    columns = [list(c) for c in zip(*cells)] or [[], [], [], []]
    t = build(dict(zip(["k", "t", "v", "w"], columns)), "t", ("k",))
    before = list(t.rows())
    want = list(t.rows())
    for name, direction in reversed(spec):
        want = sorted(want, key=lambda row: _ascending_place(row[name]),
                      reverse=direction == "desc")
    items = [name if direction is None else (name, direction) for name, direction in spec]
    assert arrange(t, items) == want
    assert list(t.rows()) == before


def test_arrange_places_nan_after_numbers_and_before_missing_cells():
    t = build({"t": [1, 2, 3, 4, 5, 6], "v": [3.0, math.nan, 1.0, None, 2.0, 0.5]}, "t")
    assert repr([r["v"] for r in arrange(t, ["v"])]) == "[0.5, 1.0, 2.0, 3.0, nan, None]"
    assert repr([r["v"] for r in arrange(t, [("v", "desc")])]) == "[None, nan, 3.0, 2.0, 1.0, 0.5]"


def test_arrange_multi_column_stable(tb):
    rows = arrange(tb, ["gender", ("count", "desc")])
    genders = [r["gender"] for r in rows]
    assert genders == sorted(genders)
    female_counts = [r["count"] for r in rows if r["gender"] == "Female"]
    assert female_counts == sorted(female_counts, reverse=True)


def test_arrange_sorts_an_adapter_index_by_its_ticks():
    # A Semester defines == but no <: the index sorts by its adapter's ticks.
    register_index_adapter(SemesterAdapter())
    try:
        terms = [Semester(2020, 1), Semester(2019, 1), Semester(2019, 2)]
        t = build({"k": ["a"] * 3 + ["b"] * 3, "s": terms * 2, "v": [1, 2, 3, 4, 5, 6]},
                  "s", ("k",))
        assert [r["v"] for r in arrange(t, ["s"])] == [2, 5, 3, 6, 1, 4]
        assert [r["v"] for r in arrange(t, [("s", "desc")])] == [1, 4, 3, 6, 2, 5]
        assert [r["v"] for r in arrange(t, [("k", "desc"), ("s", "desc")])] == [4, 6, 5, 1, 3, 2]
    finally:
        unregister_index_adapter("semester")


def test_arrange_rejects_bad_spec(tb):
    with pytest.raises(PreconditionError):
        arrange(tb, [("count", "sideways")])
    with pytest.raises(SchemaError):
        arrange(tb, ["nope"])


# --- select -----------------------------------------------------------------


def test_select_explicit_columns(tb):
    out, warnings = select(tb, ["country", "gender", "year", "count"])
    assert warnings == ()
    assert out.column_names == ["country", "gender", "year", "count"]
    assert out.key == ("country", "gender")
    validate_table(out)


def test_select_retains_index_implicitly(tb):
    out, warnings = select(tb, ["country", "gender", "count"])
    assert len(warnings) == 1
    assert "retained implicitly" in warnings[0]
    assert out.column_names == ["country", "gender", "count", "year"]


def test_select_without_index_or_full_key_rejected(tb):
    with pytest.raises(SchemaError, match="index"):
        select(tb, ["country", "count"])


def test_select_dropping_keys_must_keep_uniqueness(tb):
    with pytest.raises(DuplicateIndexError):
        select(tb, ["year", "count"])
    with pytest.raises(DuplicateIndexError):
        select(tb, ["gender", "year", "count"])


def test_select_key_can_shrink_when_unique():
    t = build(
        {
            "k": ["a", "a", "b", "b"],
            "t": [1, 2, 3, 4],
            "v": [1.0, 2.0, 3.0, 4.0],
        },
        "t",
        ("k",),
    )
    out = select(t, ["t", "v"]).table
    assert out.key == ()
    assert out.nrows == 4


_BY_NAMES = {
    "select": lambda t, names: select(t, names),
    "arrange": lambda t, names: arrange(t, names),
    "gather": lambda t, names: gather(t, "name", "value", names),
    "join": lambda t, names: join(t, {"day": [2], "store": ["b"]}, by=names),
}


@pytest.mark.parametrize("verb, name", [
    ("select", "units"), ("arrange", "units"), ("gather", "units"), ("join", "day"),
])
def test_a_bare_str_is_one_column_name(verb, name):
    t = build({"day": [1, 2, 3], "units": [3, 1, 2], "price": [1.0, 2.0, 3.0]}, "day")
    got, want = _BY_NAMES[verb](t, name), _BY_NAMES[verb](t, [name])
    if isinstance(got, list):  # arrange lists rows
        assert got == want
    else:
        assert_same_table(got.table, want.table)
        assert got.warnings == want.warnings


def test_select_unknown_column(tb):
    with pytest.raises(SchemaError):
        select(tb, ["country", "nope", "year"])


# --- mutate and transmute ---------------------------------------------------


def test_mutate_adds_column(tb):
    out = mutate(tb, thousands=lambda r: r["count"] / 1000).table
    assert out.kind_of("thousands") == "real"
    assert out.column("thousands") == [c / 1000 for c in out.column("count")]
    assert out.column_names[-1] == "thousands"


def test_mutate_sees_earlier_results(tb):
    out = mutate(tb, double=lambda r: r["count"] * 2,
                 quadruple=lambda r: r["double"] * 2).table
    assert out.column("quadruple") == [c * 4 for c in out.column("count")]


def test_mutate_broadcast_and_list(tb):
    out = mutate(tb, flag=True, seq=list(range(12))).table
    assert out.kind_of("flag") == "bool"
    assert set(out.column("flag")) == {True}
    assert sorted(out.column("seq")) == list(range(12))
    with pytest.raises(PreconditionError):
        mutate(tb, seq=[1, 2, 3])
    with pytest.raises(SchemaError, match=r"column 'seq' mixes cell kinds: \['int', 'text'\]"):
        mutate(tb, seq=[1, "x"] * 6)


def test_mutate_overwriting_index_revalidates(tb):
    with pytest.raises(DuplicateIndexError):
        mutate(tb, year=tp.year(2011))
    shifted = mutate(tb, year=lambda r: tp.year(2000 + r["year"].ticks - 41)).table
    assert shifted.column("year")[0].render() == "2000"
    validate_table(shifted)


def test_mutate_overwriting_key_revalidates(tb):
    with pytest.raises(DuplicateIndexError):
        mutate(tb, gender="all")
    renamed = mutate(tb, gender=lambda r: r["gender"][0]).table
    assert set(renamed.column("gender")) == {"F", "M"}


def test_transmute_keeps_key_index_and_results(tb):
    out = transmute(tb, rate=lambda r: float(r["count"])).table
    assert out.column_names == ["country", "gender", "year", "rate"]
    assert out.key == tb.key
    validate_table(out)


def test_a_result_column_may_be_named_t(tb):
    out = mutate(tb, t=list(range(12))).table
    assert out.column("t") == list(range(12))
    out = transmute(tb, t=1).table
    assert out.column_names == ["country", "gender", "year", "t"]


# --- grouping and summarize -------------------------------------------------


def test_summarize_grouped_by_country(tb):
    out = summarize(group_by(tb, "country"), total=("sum", "count"))
    assert out.key == ("country",)
    assert out.nrows == 6
    got = {(r["country"], r["year"].render()): r["total"] for r in table_rows(out)}
    assert got == {
        ("Australia", "2011"): 296,
        ("Australia", "2012"): 286,
        ("New Zealand", "2011"): 83,
        ("New Zealand", "2012"): 65,
        ("United States of America", "2011"): 3659,
        ("United States of America", "2012"): 3538,
    }
    validate_table(out)


def test_summarize_ungrouped_collapses_key(tb):
    out = summarize(tb, total=("sum", "count"))
    assert out.key == ()
    assert out.nrows == 2
    assert out.column("total") == [4038, 3889]
    assert "country" not in out.column_names


def test_summarize_grouped_by_continent(tb):
    out = summarize(group_by(tb, "continent"), total=("sum", "count"))
    rows = [(r["continent"], r["year"].render(), r["total"]) for r in table_rows(out)]
    assert rows == [
        ("Americas", "2011", 3659),
        ("Americas", "2012", 3538),
        ("Oceania", "2011", 379),
        ("Oceania", "2012", 351),
    ]


def test_summarize_multiple_outputs(tb):
    out = summarize(group_by_key(tb), n=("count", "count"), top=("max", "count"),
                    mid=("mean", "count"))
    assert out.key == ("country", "gender")
    assert out.nrows == 12
    first = out.row(0)
    assert (first["n"], first["top"], first["mid"]) == (1, 120, 120.0)


def test_summarize_without_present_cells_declares_kinds():
    t = build({"t": [1, 2, 3], "v": [1, 2, 3], "x": [1.5, None, 2.5]}, "t")
    empty = tfilter(t, lambda r: False).table
    aggs = dict(s=("sum", "v"), lo=("min", "x"), m=("mean", "v"), n=("count", "v"),
                q=("quantile:0.5", "v"))
    out = summarize(empty, **aggs)
    assert out.nrows == 0
    assert out.schema == [("t", "int"), ("s", "int"), ("lo", "real"), ("m", "real"),
                          ("n", "int"), ("q", "real")]
    # Only missing cells in every bucket: the same kinds.
    holes = tfilter(t, lambda r: r["x"] is None).table
    out = summarize(holes, lo=("min", "x"), hi=("max", "x"), s=("sum", "x"))
    assert out.column("lo") == [None]
    assert out.schema == [("t", "int"), ("lo", "real"), ("hi", "real"), ("s", "real")]


def test_summarize_of_a_column_with_no_present_cell():
    t = build({"t": [1, 2], "v": [None, None]}, "t")
    out = summarize(t, s=("sum", "v"), n=("count", "v"), m=("mean", "v"))
    assert out.to_dict() == {"t": [1, 2], "s": [None, None], "n": [0, 0], "m": [None, None]}
    assert out.schema == [("t", "int"), ("s", None), ("n", "int"), ("m", "real")]


def test_summarize_declares_kinds_whatever_the_cells():
    t = build({"t": [1, 2], "v": [1, 2.5]}, "t")
    ints_only = tfilter(t, lambda r: r["v"] == 1).table
    assert ints_only.kind_of("v") == "real"
    out = summarize(ints_only, s=("sum", "v"), hi=("max", "v"), n=("count", "v"))
    assert out.column("s") == [1] and out.column("hi") == [1]
    assert out.schema == [("t", "int"), ("s", "real"), ("hi", "real"), ("n", "int")]


def test_float_sum_is_correctly_rounded():
    t = build({"k": ["a", "b", "c", "a", "b"], "t": [1, 1, 1, 2, 2],
               "v": [1e16, 1.0, -1e16, 1, 2]}, "t", ("k",))
    out = summarize(t, s=("sum", "v"))
    assert out.column("s") == [1.0, 3.0]
    # Ints alone sum to an exact int; where fsum raises, builtin sum decides.
    assert aggregates.apply("sum", [2**60, None, 1]) == 2**60 + 1
    assert aggregates.apply("sum", [1.7e308, 1.7e308, -1.7e308]) == math.inf
    assert math.isnan(aggregates.apply("sum", [math.inf, -math.inf, 1.0]))



_APPLY_REFERENCE = {"sum": sum, "mean": statistics.fmean, "min": min, "max": max, "count": len,
                    "quantile:0.5": statistics.median}


@pytest.mark.parametrize("make", [list, tuple, lambda cells: (v for v in cells)],
                         ids=["list", "tuple", "generator"])
@pytest.mark.parametrize("cells", [(1, 2, 3), (1, None, 3, None), (None, None), (), (2.5, None)])
@pytest.mark.parametrize("spec", sorted(_APPLY_REFERENCE))
def test_apply_reads_any_iterable_of_cells_once(make, cells, spec):
    # Missing cells are skipped whatever holds the cells.  A generator
    # read twice would give its cells to the first pass only, so the
    # results pin one read.
    pool = [v for v in cells if v is not None]
    want = _APPLY_REFERENCE[spec](pool) if pool or spec == "count" else None
    given_cells = make(cells)
    assert aggregates.apply(spec, given_cells) == want
    if isinstance(given_cells, list):
        assert given_cells == list(cells)  # the caller's list is not changed

def test_apply_reads_a_range_and_a_generator_with_a_missing_cell():
    assert aggregates.apply("sum", range(4)) == 6
    assert aggregates.apply("max", range(0)) is None
    assert aggregates.apply("count", range(5)) == 5
    assert aggregates.apply("sum", (x for x in (1, 2, None))) == 3
    assert aggregates.apply("count", (x for x in (1, None, None))) == 1

def test_summarize_quantile_matches_reference(tb):
    out = summarize(tb, q=("quantile:0.3", "count"))
    by_year = {}
    for r in table_rows(tb):
        by_year.setdefault(r["year"].render(), []).append(r["count"])
    for row in table_rows(out):
        expect = statistics.quantiles(by_year[row["year"].render()], n=10, method="inclusive")[2]
        assert row["q"] == pytest.approx(expect)


def test_summarize_mean_matches_reference(tb):
    out = summarize(group_by(tb, "gender"), avg=("mean", "count"))
    for row in table_rows(out):
        pool = [r["count"] for r in table_rows(tb)
                if r["gender"] == row["gender"] and r["year"] == row["year"]]
        assert row["avg"] == pytest.approx(statistics.fmean(pool))


@given(st.lists(st.none() | st.integers() | st.floats(), min_size=1))
def test_mean_is_statistics_fmean_bit_for_bit(cells):
    # statistics.fmean stays the reference where it returns; the library
    # does not import it.  Where fsum fails, the mean is builtin sum over
    # the count, and a mean that does not fit a float is refused.
    pool = [v for v in cells if v is not None]
    try:
        want = repr(statistics.fmean(pool)) if pool else "None"
    except (OverflowError, ValueError):
        try:
            want = repr(sum(pool) / len(pool))
        except OverflowError:
            with pytest.raises(PreconditionError, match="mean"):
                aggregates.apply("mean", cells)
            return
    assert repr(aggregates.apply("mean", cells)) == want


def _mean_three_ways(cells):
    """The mean of ``cells`` from apply, from summarize pooling two series
    into one row, and from roll_by_key over one window of both cells."""
    pooled = build({"k": ["a", "b"], "t": [1, 1], "v": cells}, "t", ("k",))
    rolled = roll_by_key(build({"t": [1, 2], "v": cells}, "t"), "v", "slide", "mean", Window(2))
    return [
        aggregates.apply("mean", cells),
        summarize(pooled, m=("mean", "v")).column("m")[0],
        rolled.column("v_slide")[1],
    ]


@pytest.mark.parametrize("cells, want", [
    ([float("inf"), float("-inf")], "nan"),
    ([1e308, 1e308], "inf"),
])
def test_mean_is_the_sum_over_the_count_where_fsum_fails(cells, want):
    assert [repr(m) for m in _mean_three_ways(cells)] == [want] * 3
    assert repr(aggregates.apply("sum", cells) / 2) == want


@pytest.mark.parametrize("cells", [[10**400, 1], [10**400, 1.0]])
def test_mean_that_does_not_fit_a_float_is_refused(cells):
    with pytest.raises(PreconditionError, match="mean"):
        aggregates.apply("mean", cells)
    with pytest.raises(PreconditionError, match="mean"):
        summarize(build({"k": ["a", "b"], "t": [1, 1], "v": cells}, "t", ("k",)), m=("mean", "v"))
    with pytest.raises(PreconditionError, match="mean"):
        roll_by_key(build({"t": [1, 2], "v": cells}, "t"), "v", "slide", "mean", Window(2))


@pytest.mark.parametrize("spec, cells", [("sum", [10**400, 1.0]), ("quantile:0.5", [10**400, 1])])
def test_sum_and_quantile_that_do_not_fit_a_float_are_refused(spec, cells):
    with pytest.raises(PreconditionError, match=spec.partition(":")[0]):
        aggregates.apply(spec, cells)


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Real(float):
    """A float subclass: numeric, but not a plain float."""


def _apply_cell_by_cell(spec, values):
    """``aggregates.apply`` with its numeric check made on every cell: the
    oracle for the check that reads a pool's set of types."""
    name, p = aggregates.parse_spec(spec)
    pool = [v for v in values if v is not None]
    if name == "count":
        return len(pool)
    if not pool:
        return None
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if name in ("sum", "mean", "quantile") and not all(numeric(v) for v in pool):
        raise SchemaError(f"{name} needs numeric cells")
    if name in ("min", "max", "quantile") and any(isinstance(v, float) and v != v for v in pool):
        return math.nan
    if name == "min":
        return min(pool)
    if name == "max":
        return max(pool)
    try:
        if name == "sum":
            if any(isinstance(v, float) for v in pool):
                return aggregates._fsum(pool)
            return sum(pool)
        if name == "mean":
            return aggregates._fsum(pool) / len(pool)
        return aggregates.quantile(pool, p)
    except OverflowError:
        raise PreconditionError(f"{name} of these cells does not fit a float") from None


def _outcome(fn, spec, cells):
    try:
        v = fn(spec, cells)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "returns", type(v), repr(v)


_POOL_CELLS = (
    st.none() | st.integers(-9, 9) | st.just(10**400) | st.sampled_from([0.0, -0.0])
    | st.floats() | st.booleans() | st.sampled_from(list(Level)) | st.floats().map(Real)
    | st.text(max_size=2)
)


@given(
    st.sampled_from(["sum", "mean", "min", "max", "count", "quantile:0.3"]),
    st.lists(_POOL_CELLS, max_size=6)
    # Plain ints and floats, with floats whose fsum and builtin sum differ.
    | st.lists(st.none() | st.integers() | st.floats(allow_nan=False)
               | st.sampled_from([1.0, 1e16, -1e16]), max_size=6),
)
@example("sum", [1e16, 1.0, -1e16])
def test_apply_checks_a_pool_as_its_cells_would(spec, cells):
    assert _outcome(aggregates.apply, spec, cells) == _outcome(_apply_cell_by_cell, spec, cells)


def test_summarize_names_the_row_of_t_holding_a_nan_grouping_cell():
    # Rows 0 and 2 share a bucket, so the NaN would be row 2 of the buckets.
    t = build({"k": ["a", "a", "b", "b"], "t": [1, 2, 1, 2], "g": [1.0, 1.0, 1.0, math.nan],
               "x": [1, 2, 3, 4]}, "t", ("k",))
    with pytest.raises(SchemaError, match=r"^key column 'g' holds NaN at row 3$"):
        summarize(group_by(t, "g"), s=("sum", "x"))


def test_summarize_skips_missing_values():
    t = build(
        {"t": [1, 1, 2, 2], "k": ["a", "b", "a", "b"], "v": [1.0, None, None, None]},
        "t",
        ("k",),
    )
    out = summarize(t, s=("sum", "v"), n=("count", "v"))
    assert out.column("s") == [1.0, None]
    assert out.column("n") == [1, 0]


def test_summarize_output_may_be_named_t(tb):
    out = summarize(group_by(tb, "country"), t=("sum", "count"))
    assert out.column_names == ["country", "year", "t"]


def test_summarize_refuses_an_output_named_as_a_grouping_column_or_the_index(tb, monkeypatch):
    applied = []
    monkeypatch.setattr(aggregates, "apply", lambda *args: applied.append(args))
    with pytest.raises(SchemaError, match="output 'country' clashes with a grouping column"):
        summarize(group_by(tb, "country"), country=("sum", "count"))
    with pytest.raises(SchemaError, match="output 'year' clashes with the result's index"):
        summarize(tb, year=("sum", "count"))
    with pytest.raises(SchemaError, match="output 'count' clashes with the result's index"):
        summarize(index_by(tb, Granularity.YEAR, name="count"), count=("sum", "count"))
    assert applied == []


@pytest.mark.parametrize("order", ["index_by_then_group_by", "group_by_then_index_by"])
def test_summarize_refuses_a_grouping_column_named_as_the_derived_index(monkeypatch, order):
    # Two series; an index named as a grouping column would merge them.
    t = build({"k": ["a", "a", "b", "b"], "m": [tp.month(2011, 1), tp.month(2011, 2)] * 2,
               "v": [1, 2, 3, 4]}, "m", ("k",))
    if order == "index_by_then_group_by":
        grouped = group_by(index_by(t, "year", name="k"), "k")
    else:
        grouped = index_by(group_by(t, "k"), "year", name="k")
    applied = []
    monkeypatch.setattr(aggregates, "apply", lambda *args: applied.append(args))
    with pytest.raises(SchemaError, match="grouping column 'k' clashes with the result's index"):
        summarize(grouped, s=("sum", "v"))
    assert applied == []


def _irregular():
    return build({"k": ["a"] * 3 + ["b"] * 3, "j": ["x"] * 6, "t": [1, 3, 7, 2, 3, 9],
                  "v": [1, 2, 3, 4, 5, 6], "w": [10, 20, 30, 40, 50, 60]},
                 "t", ("k", "j"), regular=False)


IRREGULAR_VERBS = {
    "filter": lambda t: tfilter(t, lambda r: r["v"] > 1).table,
    "filter_index": lambda t: filter_index(t, "2 ~ 7").table,
    "select_keeping_keys": lambda t: select(t, ["k", "j", "t", "v"]).table,
    "select_dropping_a_key": lambda t: select(t, ["k", "t", "v"]).table,
    "mutate_measure": lambda t: mutate(t, v=lambda r: r["v"] * 2).table,
    "mutate_index": lambda t: mutate(t, t=lambda r: r["t"] * 2).table,
    "transmute": lambda t: transmute(t, u=lambda r: r["v"] + r["w"]).table,
    "gather": lambda t: gather(t, "name", "value", ["v", "w"]).table,
    "spread": lambda t: spread(gather(t, "name", "value", ["v", "w"]).table, "name", "value").table,
    "join_left": lambda t: join(t, {"k": ["a", "b"], "z": [1, 2]}, "left", by=["k"]).table,
    "join_semi": lambda t: join(t, {"k": ["a"]}, "semi", by=["k"]).table,
    "join_full": lambda t: join(t, {"k": ["c"], "j": ["x"], "t": [4], "z": [1]}, "full").table,
    "summarize": lambda t: summarize(t, s=("sum", "v")),
    "summarize_index_by": lambda t: summarize(
        index_by(group_by(t, "k"), lambda v: v // 4, name="p"), s=("sum", "v")),
}


@pytest.mark.parametrize("verb", list(IRREGULAR_VERBS))
def test_an_irregular_declaration_survives_every_verb(verb):
    t = _irregular()
    assert t.interval.shorthand() == "[!]"
    out = IRREGULAR_VERBS[verb](t)
    assert out.nrows > 0
    assert out.interval.shorthand() == "[!]" and not out.declared_regular
    validate_table(out)


NAN_POOLS = [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan], [1, math.nan, 2]]


@pytest.mark.parametrize("spec", ["min", "max", "quantile:0.5", "sum", "mean"])
@pytest.mark.parametrize("pool", NAN_POOLS)
def test_a_pool_holding_nan_aggregates_to_nan_wherever_it_sits(spec, pool):
    assert math.isnan(aggregates.apply(spec, pool))
    assert aggregates.apply("count", pool) == 3


def test_summarize_gives_nan_for_a_group_holding_nan():
    t = build({"k": ["a"] * 3 + ["b"] * 3 + ["c"] * 2, "t": [1, 2, 3] * 2 + [1, 2],
               "v": [math.nan, 1.0, 2.0, 1.0, math.nan, 2.0, 1.0, 2.0]}, "t", ("k",))
    per_key = index_by(group_by(t, "k"), lambda v: 0, name="all")
    out = summarize(per_key, lo=("min", "v"), hi=("max", "v"), mid=("quantile:0.5", "v"))
    for name in ("lo", "hi", "mid"):
        assert [math.isnan(v) for v in out.column(name)] == [True, True, False]
    assert out.column("hi")[2] == 2.0


def test_summarize_rejects_bad_requests(tb):
    with pytest.raises(SchemaError):
        summarize(tb, x=("median", "count"))
    with pytest.raises(SchemaError):
        summarize(tb, x=("sum", "nope"))
    with pytest.raises(SchemaError):
        summarize(tb, x=("sum", "gender"))
    with pytest.raises(SchemaError):
        summarize(tb, x=("quantile:1.5", "count"))


def test_group_by_errors(tb):
    with pytest.raises(SchemaError):
        group_by(tb, "nope")
    with pytest.raises(SchemaError, match="index_by"):
        group_by(tb, "year")


def test_group_by_does_not_touch_rows(tb):
    grouped = group_by(tb, "country")
    assert grouped.groups.by == ("country",)
    assert_same_table(grouped, tb)


# --- grouping persists -----------------------------------------------------


def _sums_by(t, group, index, column):
    """Brute-force totals of ``column`` per (group cell, rendered index cell)."""
    totals = {}
    for row in table_rows(t):
        cell = row[index]
        at = (row[group], cell.render() if isinstance(cell, tp.TimePoint) else cell)
        totals[at] = totals.get(at, 0) + row[column]
    return totals


def test_group_by_then_filter_summarizes_per_group():
    t = build({"k": ["a", "b", "a", "b"], "c": ["x", "y", "x", "y"], "t": [1, 1, 2, 2],
               "v": [1, 2, 3, 4]}, "t", ("k",))
    kept = tfilter(group_by(t, "c"), lambda r: True).table
    assert kept.groups.by == ("c",)
    out = summarize(kept, s=("sum", "v"))
    assert out.to_dict() == {"c": ["x", "x", "y", "y"], "t": [1, 2, 1, 2], "s": [1, 3, 2, 4]}


GROUP_KEEPING_VERBS = {
    "filter": lambda t: tfilter(t, lambda r: r["count"] > 100),
    "filter_index": lambda t: filter_index(t, "2012"),
    "mutate": lambda t: mutate(t, count=lambda r: r["count"] % 97),
    "select": lambda t: select(t, ["continent", "count", "country", "gender"]),
    "semi_join": lambda t: join(t, {"country": ["Australia", "New Zealand"]}, "semi"),
}


@pytest.mark.parametrize("verb", GROUP_KEEPING_VERBS.values(), ids=GROUP_KEEPING_VERBS.keys())
def test_grouping_persists_through_row_keeping_verbs(tb, verb):
    grouped = verb(group_by(tb, "continent")).table
    assert grouped.groups.by == ("continent",)
    out = summarize(grouped, s=("sum", "count"))
    assert_same_table(out, summarize(group_by(verb(tb).table, "continent"), s=("sum", "count")))
    expect = _sums_by(verb(tb).table, "continent", "year", "count")
    assert _sums_by(out, "continent", "year", "s") == expect
    assert out.nrows == len(expect)


@pytest.fixture
def wide():
    return build({"k": ["a", "a", "b", "b"], "c": ["x", "x", "y", "y"], "t": [1, 2, 1, 2],
                  "u": [1, 2, 3, 4], "w": [5, 6, 7, 8]}, "t", ("k",))


def test_grouping_survives_gather_and_spread(wide):
    long, warnings = gather(group_by(wide, "c"), "name", "value", ["u", "w"])
    assert long.groups.by == ("c",) and warnings == ()
    out = summarize(long, s=("sum", "value"))
    assert out.to_dict() == {"c": ["x", "x", "y", "y"], "t": [1, 2, 1, 2], "s": [6, 8, 10, 12]}
    back, warnings = spread(long, "name", "value")
    assert back.groups.by == ("c",) and warnings == ()
    assert_same_table(replace(back, groups=None), wide)


def test_verbs_that_rebuild_warn_naming_the_grouping_they_drop(wide):
    out, warnings = spread(group_by(wide, "c", "k"), "c", "u")
    assert out.groups.by == ("k",)
    assert warnings == ("grouping columns ['c'] dropped",)
    out, warnings = gather(group_by(wide, "c"), "name", "value", ["c"])
    assert out.groups.by == ()
    assert warnings == ("grouping columns ['c'] dropped",)


def test_grouping_survives_select_dropping_a_key_and_mutate_of_the_key():
    t = build({"k": ["a", "a", "b"], "c": ["x", "x", "y"], "t": [1, 2, 3], "v": [1, 2, 3]},
              "t", ("k",))
    out, warnings = select(group_by(t, "c"), ["c", "t", "v"])
    assert (out.key, out.groups.by, warnings) == ((), ("c",), ())
    out, warnings = mutate(group_by(t, "c"), k=lambda r: r["k"].upper())
    assert (out.column("k"), out.groups.by, warnings) == (["A", "A", "B"], ("c",), ())


def test_index_by_grouping_survives_a_rebuild_that_keeps_its_ticks(monthly_panel):
    yearly = index_by(monthly_panel, Granularity.YEAR)
    long, warnings = gather(yearly, "name", "value", ["v"])
    assert long.groups == yearly.groups and warnings == ()
    out = summarize(long, s=("sum", "value"))
    assert [(r["year"].render(), r["s"]) for r in table_rows(out)] == [("2011", 66), ("2012", 99)]
    same, warnings = mutate(yearly, month=lambda r: r["month"])
    assert same.groups == yearly.groups and warnings == ()
    inner = join(yearly, {"k": ["a"], "tag": ["t"]}, "inner", by=["k"]).table
    assert inner.groups == yearly.groups


def test_index_by_grouping_is_dropped_with_a_warning_when_the_index_granularity_changes(
    monthly_panel,
):
    yearly = index_by(group_by(monthly_panel, "k"), Granularity.YEAR)
    first_day = lambda r: tp.day(*tp.start_date(r["month"]).timetuple()[:3])
    out, warnings = mutate(yearly, month=first_day)
    assert out.groups == Grouping(("k",))
    assert warnings == (
        "index_by grouping 'year' dropped",
        "interval changed from [1M] to [1D]",
    )


def test_a_rebuilt_verb_warns_when_the_interval_changes():
    # Each series is two days apart; together they are daily.
    t = build({"k": ["a", "a", "b", "b"], "d": [tp.day(2021, 1, d) for d in (1, 3, 2, 4)],
               "v": [1, 2, 3, 4]}, "d", ("k",))
    out, warnings = select(t, ["d", "v"])
    assert out.key == () and out.column("v") == [1, 3, 2, 4]
    assert warnings == ("interval changed from [2D] to [1D]",)


@pytest.fixture
def monthly_panel():
    months = [tp.month(2011, m) for m in (10, 11, 12)] + [tp.month(2012, m) for m in (1, 2)]
    return build({"k": ["a"] * 5 + ["b"] * 5, "month": months * 2,
                  "v": [1, 2, 3, 4, 5, 10, 20, 30, 40, 50]}, "month", ("k",))


INDEX_BY_KEEPING_VERBS = {
    "filter": lambda t: tfilter(t, lambda r: r["v"] % 20 != 0),
    "filter_index": lambda t: filter_index(t, "2011-11 ~ 2012-01"),
    "semi_join": lambda t: join(t, {"k": ["b"]}, "semi"),
    "mutate_key": lambda t: mutate(t, k=lambda r: r["k"].upper()),
    # a's November and b's December are new rows.
    "fill_gaps": lambda t: VerbOutcome(
        fill_gaps(tfilter(t, lambda r: r["v"] not in (2, 30)).table, {"v": 0})
    ),
    "gather": lambda t: gather(t, "name", "v", ["v"]),
    "full_join": lambda t: join(t, {"k": ["c"], "month": [tp.month(2013, 1)], "v": [7]},
                                "full", by=["k", "month", "v"]),
    "mutate_index": lambda t: mutate(
        t, month=lambda r: tp.TimePoint(r["month"].ticks + 12, Granularity.MONTH)
    ),
}


@pytest.mark.parametrize(
    "verb", INDEX_BY_KEEPING_VERBS.values(), ids=INDEX_BY_KEEPING_VERBS.keys()
)
def test_index_by_persists_through_row_keeping_verbs(monthly_panel, verb):
    moved = verb(index_by(monthly_panel, Granularity.YEAR)).table
    assert moved.groups.index_name == "year"
    out = summarize(moved, s=("sum", "v"))
    direct = summarize(index_by(verb(monthly_panel).table, Granularity.YEAR), s=("sum", "v"))
    assert_same_table(out, direct)
    expect = {}
    for row in table_rows(verb(monthly_panel).table):
        year = row["month"].render()[:4]
        expect[year] = expect.get(year, 0) + row["v"]
    assert {r["year"].render(): r["s"] for r in table_rows(out)} == expect


def test_select_and_transmute_retain_grouping_columns(tb):
    grouped = group_by(tb, "continent")
    out, warnings = select(grouped, ["country", "gender", "count"])
    assert out.column_names == ["country", "gender", "count", "continent", "year"]
    assert warnings == (
        "grouping columns ['continent'] retained implicitly",
        "index column 'year' retained implicitly",
    )
    assert out.groups.by == ("continent",)
    out = transmute(grouped, twice=lambda r: 2 * r["count"]).table
    assert out.column_names == ["country", "gender", "year", "continent", "twice"]
    assert out.groups.by == ("continent",)


def test_validate_table_checks_grouping(tb):
    grouped = group_by(tb, "continent")
    with pytest.raises(SchemaError, match="grouping column 'nope' missing"):
        validate_table(replace(grouped, groups=replace(grouped.groups, by=("nope",))))


# --- index_by ---------------------------------------------------------------


@pytest.fixture
def monthly():
    months = [tp.month(2011, m) for m in (10, 11, 12)] + [tp.month(2012, m) for m in (1, 2)]
    return build({"month": months, "v": [1.0, 2.0, 3.0, 4.0, 5.0]}, "month")


def test_index_by_granularity(monthly):
    out = summarize(index_by(monthly, Granularity.YEAR), total=("sum", "v"))
    assert out.index == "year"
    assert [(r["year"].render(), r["total"]) for r in table_rows(out)] == [
        ("2011", 6.0),
        ("2012", 9.0),
    ]
    assert out.interval.shorthand() == "[1Y]"


def test_index_by_accepts_granularity_name(monthly):
    out = summarize(index_by(monthly, "quarter"), total=("sum", "v"))
    assert [(r["quarter"].render(), r["total"]) for r in table_rows(out)] == [
        ("2011 Q4", 6.0),
        ("2012 Q1", 9.0),
    ]


def test_index_by_callable(monthly):
    def late(v):
        # July onward counts toward the next year.
        return tp.year(1970 + v.ticks // 12 + (1 if v.ticks % 12 >= 6 else 0))

    out = summarize(index_by(monthly, late), total=("sum", "v"))
    assert out.index == "late"
    assert [(r["late"].render(), r["total"]) for r in table_rows(out)] == [("2012", 15.0)]


def test_index_by_custom_name(monthly):
    out = summarize(index_by(monthly, Granularity.YEAR, name="fy"), total=("sum", "v"))
    assert out.index == "fy"


def test_index_by_same_granularity_is_identity(tb):
    out = summarize(index_by(tb, Granularity.YEAR), total=("sum", "count"))
    assert_same_table(out, summarize(tb, total=("sum", "count")))


def test_index_by_non_monotone_rejected(monthly):
    with pytest.raises(PreconditionError, match="order-preserving"):
        index_by(monthly, lambda v: -v.ticks)


def test_index_by_missing_derived_cell_names_its_source():
    days = build({"d": [tp.day(2021, 1, i) for i in range(1, 6)], "v": [1, 2, 3, 4, 5]}, "d")
    with pytest.raises(MissingIndexError, match="'d' cell 2021-01-03 to a missing value"):
        index_by(days, lambda v: None if v == tp.day(2021, 1, 3) else v)
    with pytest.raises(MissingIndexError, match="'d' cell 2021-01-01 to a missing value"):
        index_by(days, lambda v: None)


def test_index_by_ordinal_calendar_mix_rejected(tb):
    t = build({"t": [1, 2, 3], "v": [1, 2, 3]}, "t")
    with pytest.raises(ConversionError):
        index_by(t, Granularity.YEAR)
    with pytest.raises(ConversionError):
        index_by(tb, Granularity.ORDINAL)


def test_index_by_with_group_by(tb):
    grouped = index_by(group_by(tb, "continent"), Granularity.YEAR, name="yr")
    out = summarize(grouped, total=("sum", "count"))
    assert out.key == ("continent",)
    assert out.nrows == 4


# --- gather and spread ------------------------------------------------------


def test_spread_by_gender(tb):
    out, warnings = spread(tb, "gender", "count")
    assert warnings == ()
    assert out.key == ("country",)
    assert out.nrows == 6
    assert out.column_names == ["country", "continent", "year", "Female", "Male"]
    first = out.row(0)
    assert (first["country"], first["Female"], first["Male"]) == ("Australia", 120, 176)
    validate_table(out)


def test_gather_inverts_spread(tb):
    wide = spread(tb, "gender", "count").table
    back = gather(wide, "gender", "count", ["Female", "Male"]).table
    assert back.key == ("country", "gender")
    assert_same_table(back, tb, ignore_column_order=True)


def test_gather_melts_measures():
    t = build(
        {"t": [1, 2], "lo": [1.0, 2.0], "hi": [10.0, 20.0]},
        "t",
    )
    out = gather(t, "series", "value", ["lo", "hi"]).table
    assert out.key == ("series",)
    assert out.nrows == 4
    assert sorted(zip(out.column("series"), out.column("value"))) == [
        ("hi", 10.0),
        ("hi", 20.0),
        ("lo", 1.0),
        ("lo", 2.0),
    ]


def test_gather_unifies_int_and_real():
    t = build({"t": [1], "a": [1], "b": [2.5]}, "t")
    out = gather(t, "which", "value", ["a", "b"]).table
    assert out.kind_of("value") == "real"


def test_gather_errors(tb):
    with pytest.raises(SchemaError):
        gather(tb, "name", "value", ["year"])
    with pytest.raises(SchemaError):
        gather(tb, "name", "value", ["gender"])
    with pytest.raises(SchemaError):
        gather(tb, "country", "value", ["count"])
    with pytest.raises(SchemaError):
        gather(tb, "name", "name", ["count"])
    with pytest.raises(PreconditionError):
        gather(tb, "name", "value", [])
    t = build({"t": [1], "a": [1], "b": ["x"]}, "t")
    with pytest.raises(SchemaError, match=r"gathering \['a', 'b'\] mixes cell kinds: \['int', 'text'\]"):
        gather(t, "which", "value", ["a", "b"])


def test_gather_takes_a_column_with_no_present_cell():
    t = build({"d": [1, 2], "a": [None, None], "b": [1, 2]}, "d")
    out = gather(t, "n", "val", ["a", "b"]).table
    assert out.to_dict() == {"d": [1, 2, 1, 2], "n": ["a", "a", "b", "b"],
                             "val": [None, None, 1, 2]}
    assert out.kind_of("val") == "int"


def test_spread_errors(tb):
    with pytest.raises(SchemaError):
        spread(tb, "year", "count")
    with pytest.raises(SchemaError):
        spread(tb, "gender", "gender")
    with pytest.raises(SchemaError):
        spread(tb, "nope", "count")
    holes = mutate(tb, gender=lambda r: None if r["count"] == 120 else r["gender"])
    with pytest.raises(ValidityError):
        spread(holes.table, "gender", "count")
    with pytest.raises(SchemaError, match="cannot use key column 'country' as spread values"):
        spread(tb, "gender", "country")
    # 00:00 UTC and 00:00 in Melbourne are two instants with one text.
    hours = [tp.hour(2020, 1, 1, 0), tp.hour(2020, 1, 1, 0, "Australia/Melbourne")]
    t = build({"at": hours, "t": [1, 1], "v": [1, 2]}, "t", ("at",))
    with pytest.raises(ValidityError, match="render to identical column names"):
        spread(t, "at", "v")


def test_index_by_survives_new_index_cells_spelling_utc_another_way():
    # Index cells in zone "UTC" replaced by cells in zone None: one zone.
    t = build({"t": [tp.hour(2020, 1, 1, h, "UTC") for h in range(4)], "v": [1, 2, 3, 4]}, "t")
    out, warnings = mutate(index_by(t, "day"), t=lambda r: tp.TimePoint(
        r["t"].ticks + 24, Granularity.HOUR))
    assert out.groups.index_name == "day"
    assert warnings == ()


def test_spread_level_name_clash(tb):
    renamed = mutate(tb, gender=lambda r: "continent" if r["gender"] == "Female" else "g2")
    with pytest.raises(SchemaError, match="clashes"):
        spread(renamed.table, "gender", "count")


def test_spread_names_level_columns_as_csv_cells():
    t = build({"k": [True, False, True, False], "t": [1, 1, 2, 2], "v": [1, 2, 3, 4]},
              "t", ("k",))
    out = spread(t, "k", "v").table
    assert out.column_names == ["t", "false", "true"]
    assert out.column("true") == [1, 3]


def test_spread_levels_appear_in_ascending_order():
    t = build(
        {"k": ["z", "y", "z", "y"], "t": [1, 1, 2, 2], "v": [1, 2, 3, 4]},
        "t",
        ("k",),
    )
    out = spread(t, "k", "v").table
    assert out.column_names == ["t", "y", "z"]
    assert out.column("y") == [2, 4]
    assert out.column("z") == [1, 3]


# --- join -------------------------------------------------------------------


@pytest.fixture
def facts():
    return {
        "country": ["Australia", "New Zealand", "United States of America"],
        "code": ["AU", "NZ", "US"],
    }


def test_left_join_adds_columns(tb, facts):
    out, warnings = join(tb, facts)
    assert warnings == ()
    assert out.nrows == 12
    assert out.column_names == tb.column_names + ["code"]
    for r in table_rows(out):
        assert r["code"] == {"Australia": "AU", "New Zealand": "NZ",
                             "United States of America": "US"}[r["country"]]
    validate_table(out)


def test_left_join_unmatched_left_gets_missing(tb):
    out = join(tb, {"country": ["Australia"], "code": ["AU"]}).table
    assert out.nrows == 12
    codes = {r["country"]: r["code"] for r in table_rows(out)}
    assert codes["Australia"] == "AU"
    assert codes["New Zealand"] is None


def test_inner_join_drops_unmatched(tb):
    out = join(tb, {"country": ["Australia"], "code": ["AU"]}, kind="inner").table
    assert out.nrows == 4
    assert set(out.column("country")) == {"Australia"}


def test_join_on_table_operand(tb):
    annual = summarize(tb, total=("sum", "count"))
    out = join(tb, annual, by=["year"]).table
    assert out.nrows == 12
    for r in table_rows(out):
        assert r["total"] == {"2011": 4038, "2012": 3889}[r["year"].render()]


def test_join_suffixes_clashing_columns(tb):
    other = {"country": ["Australia"], "count": [999]}
    out = join(tb, other, by=["country"]).table
    assert "count_y" in out.column_names
    assert out.kind_of("count") == "int"
    au = [r for r in table_rows(out) if r["country"] == "Australia"]
    assert all(r["count_y"] == 999 for r in au)


def test_join_renamed_columns(tb, facts):
    other = {"nation": facts["country"], "code": facts["code"]}
    out = join(tb, other, by=[("country", "nation")]).table
    assert set(out.column("code")) == {"AU", "NZ", "US"}


def test_semi_join_filters_without_adding(tb):
    out = join(tb, {"country": ["Australia"]}, kind="semi").table
    assert out.column_names == tb.column_names
    assert out.nrows == 4
    assert_same_table(join(tb, tb, kind="semi", by=["country", "gender", "year"]).table, tb)


def test_anti_join_inverts_semi(tb):
    out = join(tb, {"country": ["Australia"]}, kind="anti").table
    assert out.nrows == 8
    assert "Australia" not in out.column("country")
    empty = join(tb, tb, kind="anti", by=["country", "gender", "year"]).table
    assert empty.nrows == 0


def test_join_on_no_columns_matches_every_row(tb):
    # With ``by=[]`` every row has the empty key, so each left row meets
    # every right row.
    out = join(tb, {"note": ["x"]}, by=[]).table
    assert out.column("note") == ["x"] * tb.nrows
    assert join(tb, {"note": ["x"]}, kind="semi", by=[]).table.nrows == tb.nrows
    assert join(tb, {"note": ["x"]}, kind="anti", by=[]).table.nrows == 0


def test_full_join_materializes_right_only_rows(tb):
    other = {
        "country": ["Australia", "Narnia"],
        "year": [tp.year(2011), tp.year(2011)],
        "pop": [100, 1],
    }
    out = join(tb, other, kind="full", by=["country", "year"]).table
    assert out.nrows == 13
    narnia = [r for r in table_rows(out) if r["country"] == "Narnia"]
    assert len(narnia) == 1
    assert narnia[0]["year"] == tp.year(2011)
    assert narnia[0]["gender"] is None
    assert narnia[0]["pop"] == 1
    validate_table(out)


def test_joins_that_rebuild_keep_the_left_kinds():
    # v (real) holds only an int after the filter, r (real) only missing
    # cells; a right/full join must not re-read their kinds from the cells.
    t = build({"k": ["a", "a"], "t": [1, 2], "v": [1, 2.5], "r": [None, 1.0]}, "t", ("k",))
    s = tfilter(t, lambda r: r["t"] == 1).table
    full = join(s, {"k": ["a"], "t": [2], "x": [1]}, "full", by=["k", "t"]).table
    assert full.schema == [("k", "text"), ("t", "int"), ("v", "real"), ("r", "real"), ("x", "int")]
    # A join column of a right/full join also holds right cells: the common
    # kind of both sides, and a clash of kinds is refused.
    g = tfilter(build({"t": [1, 2], "g": [1, 2.5]}, "t"), lambda r: r["t"] == 1).table
    out = join(g, {"t": [2], "g": [2]}, "right", by=["t", "g"]).table
    assert dict(out.schema)["g"] == "real"
    with pytest.raises(SchemaError, match="joining 'g' with 'g' mixes cell kinds"):
        join(g, {"t": [2], "g": ["two"]}, "full", by=["t", "g"])


JOIN_KINDS = ["left", "right", "inner", "full", "semi", "anti"]


@pytest.mark.parametrize("kind", JOIN_KINDS)
def test_join_refuses_bool_cells_against_int_cells(kind):
    # True == 1 and hash(True) == hash(1), yet no column holds both kinds.
    t = build({"d": [1, 2, 3], "flag": [1, 0, 1], "x": [10, 20, 30]}, "d")
    with pytest.raises(SchemaError, match=r"joining 'flag' with 'flag' mixes cell kinds: \['bool', 'int'\]"):
        join(t, {"flag": [True, False], "label": ["yes", "no"]}, kind, by=["flag"])


@pytest.mark.parametrize("kind", JOIN_KINDS)
@pytest.mark.parametrize("cells, message", [
    ([tp.month(2020, 1)], "mixes granularities: day, month"),
    (["2020-01-01"], r"mixes cell kinds: \['text', 'time'\]"),
], ids=["month", "text"])
def test_join_refuses_time_cells_that_cannot_match(kind, cells, message):
    t = build({"d": [tp.day(2020, 1, 1), tp.day(2020, 2, 1)], "v": [1, 2]}, "d")
    with pytest.raises(SchemaError, match=f"joining 'd' with 'day' {message}"):
        join(t, {"day": cells, "w": [1]}, kind, by=[("d", "day")])


def test_join_matches_int_cells_with_real_ones():
    t = build({"t": [1, 2], "k": [1, 2]}, "t")
    out = join(t, {"k": [1.0], "w": ["one"]}, by=["k"]).table
    assert out.column("w") == ["one", None]
    assert join(t, {"t": [3], "k": [2.5]}, "full").table.schema == [("t", "int"), ("k", "real")]


_JOIN_CELLS = {
    "int": [1, 2], "real": [1.0, 2.5], "bool": [True, False], "text": ["1", "a"],
    "day": [tp.day(2020, 1, 1), tp.day(2020, 1, 2)], "month": [tp.month(2020, 1), tp.month(2020, 2)],
}
_join_column = st.sampled_from(list(_JOIN_CELLS)).flatmap(
    lambda kind: st.lists(st.sampled_from([None, *_JOIN_CELLS[kind]]), max_size=4))


@given(_join_column, _join_column)
def test_join_refuses_or_matches_by_equality(left, right):
    # Cells that one column could hold together match by equality, missing
    # cells included; any others are refused, whichever rows they are in.
    t = build({"t": list(range(len(left))), "c": left}, "t")
    present = [v for v in left + right if v is not None]
    try:
        common_kind(map(cell_kind, present))
        allowed = len({v.granularity for v in present if isinstance(v, tp.TimePoint)}) < 2
    except SchemaError:
        allowed = False
    if not allowed:
        for kind in JOIN_KINDS:
            with pytest.raises(SchemaError, match="joining 'c' with 'c'"):
                join(t, {"c": right}, kind)
        return
    assert join(t, {"c": right}, "semi").table.column("t") == [
        i for i, v in enumerate(left) if v in right]
    levels = list(dict.fromkeys(right))
    out = join(t, {"c": levels, "n": list(range(len(levels)))}).table
    assert out.column("n") == [levels.index(v) if v in levels else None for v in left]


def test_join_keeps_a_table_operands_declared_kinds():
    # After the filter, the real column "w" holds only the int 1.
    other = tfilter(build({"t": [1, 2], "w": [1, 2.5]}, "t"), lambda r: r["t"] == 1).table
    out = join(build({"t": [1, 2], "v": ["a", "b"]}, "t"), other, by=["t"]).table
    assert out.column("w") == [1, None]
    assert out.kind_of("w") == "real"


def test_join_types_right_columns_before_picking_rows():
    out = join(build({"t": [1, 2], "k": ["a", "b"]}, "t"), {"k": ["z"], "w": [1.5]}).table
    assert out.column("w") == [None, None]
    assert out.kind_of("w") == "real"


@pytest.mark.parametrize("kind", ["right", "full"])
def test_a_join_column_with_no_present_cell_takes_right_hand_cells(kind):
    t = build({"t": [1], "k": [None]}, "t")
    out = join(t, {"k": [1], "t": [2], "w": [0]}, kind, by=["k", "t"]).table
    assert out.kind_of("k") == "int"
    assert out.column("k") == ([None, 1] if kind == "full" else [1])
    # A declared kind stays, and a refusal names the join column.
    text = tfilter(build({"t": [1, 2], "k": ["a", None]}, "t"), lambda r: r["k"] is None).table
    with pytest.raises(SchemaError, match=r"join column 'k' mixes cell kinds: \['int', 'text'\]"):
        join(text, {"k": [1], "t": [2]}, kind, by=["k", "t"])


def test_a_full_join_refuses_a_right_cell_no_column_holds():
    # The left join column has no cell, so the Decimal passes the match
    # check, and the join column of the result must then refuse it.
    t = build({"t": [1, 2], "k": [None, None]}, "t")
    with pytest.raises(SchemaError, match=r"unsupported cell value Decimal\('1'\)"):
        join(t, {"t": [3], "k": [Decimal(1)]}, "full")


def test_an_unsupported_cell_is_refused_naming_its_column():
    message = r"^column 'v' holds unsupported cell value Decimal\('1'\) of type Decimal$"
    with pytest.raises(SchemaError, match=message):
        build({"t": [1], "v": [Decimal(1)]}, "t")
    with pytest.raises(SchemaError, match=message):
        mutate(build({"t": [1]}, "t"), v=[Decimal(1)])
    with pytest.raises(SchemaError, match=message):
        join(build({"t": [1], "k": [1]}, "t"), {"k": [1], "v": [Decimal(1)]})


# Each join kind of a left row (1, NaN) and a right row (1, NaN) on t and
# x: NaN equals nothing, itself included, so the rows never match.
_NAN_JOINED = {
    "left": {"k": ["l", "l"], "y": [None, "b"]},
    "inner": {"k": ["l"], "y": ["b"]},
    "right": {"k": ["l", None], "y": ["b", "a"]},
    "full": {"k": ["l", "l", None], "y": [None, "b", "a"]},
    "semi": {"k": ["l"], "t": [2]},
    "anti": {"k": ["l"], "t": [1]},
}


@pytest.mark.parametrize("shared", [False, True], ids=["own-nan", "shared-nan"])
@pytest.mark.parametrize("kind", list(_NAN_JOINED))
def test_a_nan_join_cell_matches_no_cell(kind, shared):
    left_nan = float("nan")
    right_nan = left_nan if shared else float("nan")
    t = build({"t": [1, 2], "k": ["l", "l"], "x": [left_nan, 1.0]}, "t", ("k",))
    out = join(t, {"t": [1, 2], "x": [right_nan, 1.0], "y": ["a", "b"]}, kind,
               by=["t", "x"]).table
    assert {c: out.column(c) for c in _NAN_JOINED[kind]} == _NAN_JOINED[kind]
    # One join column: its cell is the lookup key itself, not in a tuple.
    right = {"x": [right_nan], "y": ["a"]}
    assert join(t, right, "left").table.column("y") == [None, None]
    assert join(t, right, "semi").table.nrows == 0


def test_right_only_rows_need_index_values(tb):
    with pytest.raises(MissingIndexError):
        join(tb, {"country": ["Narnia"], "pop": [1]}, kind="full")


def test_join_fan_out_breaks_uniqueness(tb):
    other = {"country": ["Australia", "Australia"], "code": ["AU", "OZ"]}
    with pytest.raises(DuplicateIndexError):
        join(tb, other)


def test_missing_matches_missing():
    left = build({"t": [1, 2], "k": ["a", None], "v": [1.0, 2.0]}, "t", ("k",))
    out = join(left, {"k": ["a", None], "tag": ["has", "none"]}, by=["k"]).table
    tags = {r["t"]: r["tag"] for r in table_rows(out)}
    assert tags == {1: "has", 2: "none"}


def test_join_argument_errors(tb):
    with pytest.raises(PreconditionError):
        join(tb, {"country": []}, kind="sideways")
    with pytest.raises(SchemaError):
        join(tb, {"unrelated": [1]})
    with pytest.raises(SchemaError):
        join(tb, {"country": ["x"]}, by=["nope"])
    with pytest.raises(SchemaError):
        join(tb, {"country": ["x"]}, by=[("country", "nope")])
    with pytest.raises(SchemaError):
        join(tb, {"country": ["x"], "z": [1, 2]})
    # The right "count" would become "count_y", which the left already has.
    left = mutate(tb, count_y=0).table
    with pytest.raises(SchemaError, match="suffixed join column names still clash"):
        join(left, {"country": ["Australia"], "count": [1]}, by=["country"])
