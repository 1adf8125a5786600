import random

import pytest

from temporaltable import (
    Aggregate,
    GapError,
    SchemaError,
    UnsupportedOperationError,
    build,
    count_gaps,
    fill_gaps,
    has_gaps,
    require_gapless,
    scan_gaps,
    timepoint as tp,
)
from conftest import assert_same_table, table_rows


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


def test_fill_rejects_wrong_kind_constant(holey):
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"v": "zero"})
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"nope": 0.0})
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"k": "A"})
    with pytest.raises(SchemaError):
        fill_gaps(holey, {"t": 5})


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
    with pytest.raises(GapError, match="fill_gaps"):
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
