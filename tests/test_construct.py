import random
from collections import Counter

import pytest

from temporaltable import (
    Column,
    DuplicateIndexError,
    MissingIndexError,
    SchemaError,
    ValidityError,
    build,
    duplicates,
    key_groups,
    timepoint as tp,
    validate_table,
)
from temporaltable.table import as_kind, common_kind, with_columns
from conftest import table_rows


def shuffled(raw, seed):
    rng = random.Random(seed)
    n = len(next(iter(raw.values())))
    order = list(range(n))
    rng.shuffle(order)
    return {k: [v[i] for i in order] for k, v in raw.items()}


def test_tuberculosis_table(tb):
    assert (tb.nrows, tb.ncols) == (12, 5)
    assert tb.interval.shorthand() == "[1Y]"
    assert len(key_groups(tb)) == 6


def test_rows_sorted_past_to_future(tb):
    # Independent scan: key tuples non-decreasing, index strictly increasing
    # within equal keys.
    rows = table_rows(tb)
    for a, b in zip(rows, rows[1:]):
        ka = (a["country"], a["gender"])
        kb = (b["country"], b["gender"])
        assert ka <= kb
        if ka == kb:
            assert a["year"].ticks < b["year"].ticks


def test_row_content_preserved_exactly(tb, tb_raw):
    original = Counter(
        tuple(tb_raw[c][i] for c in tb_raw) for i in range(12)
    )
    rebuilt = Counter(
        tuple(row[c] for c in tb_raw) for row in table_rows(tb)
    )
    assert original == rebuilt


def test_build_invariant_under_row_shuffle(tb, tb_raw):
    for seed in range(5):
        assert build(shuffled(tb_raw, seed), "year", ("country", "gender")) == tb


def test_free_variable_in_key_is_allowed(tb_raw):
    t = build(tb_raw, "year", ("country", "gender", "continent"))
    assert len(key_groups(t)) == 6


def test_underdeclared_key_raises_with_report(tb_raw):
    with pytest.raises(DuplicateIndexError) as info:
        build(tb_raw, "year", ("country",))
    assert len(info.value.report) == 12


def test_duplicates_lists_all_offenders(tb_raw):
    report = duplicates(tb_raw, "year", ("country",))
    # Brute-force oracle: count (country, year) pairs.
    pairs = Counter(
        (tb_raw["country"][i], tb_raw["year"][i].ticks) for i in range(12)
    )
    expected = [i for i in range(12) if pairs[(tb_raw["country"][i], tb_raw["year"][i].ticks)] > 1]
    assert report.positions == expected
    assert len(report) == 12


def test_duplicates_empty_for_valid_key(tb_raw):
    assert not duplicates(tb_raw, "year", ("country", "gender"))


def test_duplicates_empty_iff_build_succeeds():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(1, 12)
        raw = {
            "k": [rng.choice("ab") for _ in range(n)],
            "t": [rng.randrange(0, 6) for _ in range(n)],
            "v": [rng.random() for _ in range(n)],
        }
        report = duplicates(raw, "t", ("k",))
        try:
            build(raw, "t", ("k",))
            built = True
        except DuplicateIndexError:
            built = False
        assert built == (not report)


def test_minimal_duplicate_both_rows_reported():
    raw = {"t": [tp.ordinal(1), tp.ordinal(1)], "v": [1, 2]}
    report = duplicates(raw, "t")
    assert report.positions == [0, 1]


def test_missing_index_rejected():
    with pytest.raises(MissingIndexError):
        build({"t": [tp.year(2011), None], "v": [1, 2]}, "t")


def test_duplicates_tolerates_missing_index():
    report = duplicates({"t": [None, None, tp.year(2011)], "v": [1, 2, 3]}, "t")
    assert report.positions == [0, 1]


def test_unknown_index_kind_rejected():
    with pytest.raises(SchemaError):
        build({"t": ["a", "b"], "v": [1, 2]}, "t")


def test_schema_validation():
    with pytest.raises(SchemaError):
        build({"t": [tp.year(2011)], "v": [1, 2]}, "t")  # ragged
    with pytest.raises(SchemaError):
        build({"t": [tp.year(2011)]}, "t", key=("t",))  # index in key
    with pytest.raises(SchemaError):
        build({"t": [tp.year(2011)]}, "t", key=("nope",))
    with pytest.raises(SchemaError):
        build({"t": [tp.year(2011), tp.month(2011, 2)], "v": [1, 2]}, "t")


def test_mixed_int_real_promotes():
    t = build({"t": [tp.ordinal(1), tp.ordinal(2)], "v": [1, 2.5]}, "t")
    assert t.kind_of("v") == "real"
    with pytest.raises(SchemaError):
        build({"t": [tp.ordinal(1), tp.ordinal(2)], "v": [1, "x"]}, "t")


def test_one_promotion_rule():
    assert common_kind(["int", None, "real", "int"]) == "real"
    assert common_kind(["time", None]) == "time"
    assert common_kind([None]) is None
    with pytest.raises(SchemaError, match="mixes cell kinds"):
        common_kind(["int", "bool"])
    assert as_kind(2, "real") == 2.0 and isinstance(as_kind(2, "real"), float)
    assert as_kind(2.5, "real") == 2.5 and as_kind("x", "text") == "x"
    for cell, kind in ((2.5, "int"), (True, "int"), (None, "real"), ("2", "int")):
        with pytest.raises(SchemaError):
            as_kind(cell, kind)


def test_build_keeps_a_declared_column_kind():
    t = build({"t": [2, 1], "v": Column("real", [1, 2]), "w": Column("int", [None, None])}, "t")
    assert t.schema == [("t", "int"), ("v", "real"), ("w", "int")]
    assert t.column("v") == [2, 1]
    # A plain list is read from its cells; "text" when none is present.
    assert build({"t": [1], "v": [None]}, "t").kind_of("v") == "text"
    with pytest.raises(SchemaError, match="column 'v' of kind 'int' holds real cells"):
        build({"t": [1, 2], "v": Column("int", [1, 2.5])}, "t")
    with pytest.raises(SchemaError, match="column 'v' of kind 'real' holds text cells"):
        build({"t": [1, 2], "v": Column("real", ["x", None])}, "t")


def test_build_of_a_table_keeps_its_kinds():
    t = build({"t": [1, 2], "v": Column("real", [1, None]), "w": Column("int", [None, None])}, "t")
    assert build(t, "t").schema == t.schema


def test_missing_key_level_sorts_last():
    t = build(
        {
            "k": ["b", None, "a"],
            "t": [tp.year(2011)] * 3,
            "v": [1, 2, 3],
        },
        "t",
        ("k",),
    )
    assert t.column("k") == ["a", "b", None]


def test_all_missing_key_column_is_one_level():
    t = build(
        {"k": [None, None], "t": [tp.year(2011), tp.year(2012)], "v": [1, 2]},
        "t",
        ("k",),
    )
    assert len(key_groups(t)) == 1
    assert any("missing" in note for note in t.notes)


def test_univariate_series_needs_no_key():
    t = build({"t": [tp.year(2011), tp.year(2012)], "v": [1, 2]}, "t")
    assert t.key == ()
    groups = key_groups(t)
    assert len(groups) == 1
    assert groups[0][1] == range(0, 2)


def test_empty_table():
    t = build({"t": [], "v": []}, "t")
    assert t.nrows == 0
    assert t.interval.shorthand() == "[?]"
    assert key_groups(t) == []


def test_key_group_count_matches_hashing_pass(tb, tb_raw):
    distinct = {(c, g) for c, g in zip(tb_raw["country"], tb_raw["gender"])}
    assert len(key_groups(tb)) == len(distinct)


def test_validate_table_accepts_built(tb):
    validate_table(tb)


def test_validate_table_catches_tampering(tb):
    broken = build(tb.to_dict(), "year", ("country", "gender"))
    broken.columns["year"].values.reverse()
    broken._ticks = None
    with pytest.raises(ValidityError):
        validate_table(broken)


def test_validate_table_checks_declared_kinds():
    t = build({"t": [1, 2], "v": [1.5, 2.5]}, "t")
    # with_columns takes a declared kind unchecked; the oracle checks it.
    wrong = with_columns(t, {"t": t.columns["t"], "v": Column("int", t.column("v"))})
    with pytest.raises(SchemaError, match="column 'v' of kind 'int' holds real cells"):
        validate_table(wrong)
    for kind in ("int", "real", "text"):
        validate_table(with_columns(t, {"t": t.columns["t"], "v": Column(kind, [None, None])}))
    validate_table(with_columns(t, {"t": t.columns["t"], "v": Column("real", [1, None])}))


def test_ordinal_index_from_plain_ints():
    t = build({"t": [3, 1, 2], "v": ["a", "b", "c"]}, "t")
    assert t.column("t") == [1, 2, 3]
    assert t.column("v") == ["b", "c", "a"]
    assert t.interval.shorthand() == "[1]"
