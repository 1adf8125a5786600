import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from temporaltable import (
    Column,
    DuplicateIndexError,
    Granularity,
    Interval,
    TimePoint,
    MissingIndexError,
    SchemaError,
    ValidityError,
    build,
    duplicates,
    key_groups,
    render_summary,
    table_to_csv,
    timepoint as tp,
    validate_table,
)
from temporaltable.table import (
    _sort_keys,
    as_kind,
    common_kind,
    replace,
    row_dicts,
    take,
    with_columns,
)
from conftest import table_rows
from test_adapters import Semester, SemesterAdapter, semester_registry  # noqa: F401


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
    raw = {"t": [1, 1], "v": [1, 2]}
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


class _FloatTicks(SemesterAdapter):
    def to_ticks(self, value):
        return value.year + value.sem / 2


@pytest.mark.parametrize("raw, key, adapter, message", [
    ([("t", [1])], (), None, "raw table must be a mapping"),
    ({"v": [1]}, (), None, "index column 't' not found"),
    ({"t": [1], "k": [1]}, ("k", "k"), None, r"duplicate key columns: \['k', 'k'\]"),
    ({"t": [1, 2], "d": [tp.day(2011, 1, 1), tp.month(2011, 1)]}, (), None,
     "time column 'd' mixes granularities: day, month"),
    ({"t": [Semester(2019, 1)]}, (), _FloatTicks(),
     r"index value Semester\(2019, 1\) does not map to integer ticks"),
    ({"t": [1]}, (), "no-such-adapter", "no index adapter registered under 'no-such-adapter'"),
])
def test_build_refusals(raw, key, adapter, message):
    with pytest.raises(SchemaError, match=message):
        build(raw, "t", key, adapter=adapter)
    with pytest.raises(SchemaError, match=message):
        duplicates(raw, "t", key, adapter=adapter)


# Typing every column comes first, so a missing index cell is reported
# only once no column is of the wrong kind.
@pytest.mark.parametrize("raw, message", [
    ({"t": [None, tp.day(2011, 1, 1), tp.month(2011, 1)]},
     "index column 't' mixes granularities: day, month"),
    ({"t": [None, "x"]}, "index column 't' holds no recognized time kind"),
    ({"t": [None, 1], "v": [1, "x"]}, r"column 'v' mixes cell kinds: \['int', 'text'\]"),
])
def test_a_kind_problem_is_reported_before_a_missing_index_cell(raw, message):
    for refuse in (build, duplicates):
        with pytest.raises(SchemaError, match=message):
            refuse(raw, "t")


def test_build_takes_an_adapter_by_registered_name(semester_registry):
    t = build({"t": [Semester(2019, 2), Semester(2019, 1)], "v": [2, 1]}, "t", adapter="semester")
    assert isinstance(t.adapter, SemesterAdapter)
    assert t.column("v") == [1, 2]


def test_a_utc_index_spelled_two_ways_is_one_zone():
    mixed = build({"t": [tp.hour(2020, 1, 1, 0), tp.hour(2020, 1, 1, 1, "UTC")]}, "t")
    assert render_summary(mixed).splitlines()[0] == "# A tsibble: 2 x 1 [1h] <UTC>"
    for zone in (None, "UTC"):
        alone = build({"t": [tp.hour(2020, 1, 1, 0, zone), tp.hour(2020, 1, 1, 1, zone)]}, "t")
        assert render_summary(alone).splitlines()[0] == "# A tsibble: 2 x 1 [1h] <UTC>"
        assert table_to_csv(alone) == table_to_csv(mixed)
    build({"t": [tp.hour(2020, 1, 1, 0, "utc"), tp.hour(2020, 1, 1, 1, "UTC")]}, "t")
    with pytest.raises(SchemaError, match=r"mixes time zones: \['America/New_York', 'None'\]"):
        build({"t": [tp.hour(2020, 1, 1, 0), tp.hour(2020, 1, 1, 1, "America/New_York")]}, "t")


def test_mixed_int_real_promotes():
    t = build({"t": [1, 2], "v": [1, 2.5]}, "t")
    assert t.kind_of("v") == "real"
    with pytest.raises(SchemaError):
        build({"t": [1, 2], "v": [1, "x"]}, "t")


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
    # A plain list is read from its cells; kind None when none is present.
    assert build({"t": [1], "v": [None]}, "t").kind_of("v") is None
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
    # No cell says what kind the index or "v" is: both have kind None.
    assert t.adapter.cell_kind is None
    assert t.schema == [("t", None), ("v", None)]
    assert t.interval.shorthand() == "[?]"
    assert key_groups(t) == []


def test_key_group_count_matches_hashing_pass(tb, tb_raw):
    distinct = {(c, g) for c, g in zip(tb_raw["country"], tb_raw["gender"])}
    assert len(key_groups(tb)) == len(distinct)


def test_validate_table_accepts_built(tb):
    validate_table(tb)


def test_validate_table_catches_tampering(tb):
    # Cells moved behind the stored ticks' back no longer match them.
    broken = build(tb.to_dict(), "year", ("country", "gender"))
    broken.columns["year"].values.reverse()
    with pytest.raises(ValidityError):
        validate_table(broken)


def test_validate_table_catches_corrupted_tables():
    t = build({"k": ["a", "a", "b"], "t": [1, 2, 1], "v": [1, 2, 3]}, "t", ("k",))
    swapped = [1, 0, 2]
    unsorted = replace(t, columns={n: Column(c.kind, [c.values[i] for i in swapped])
                                   for n, c in t.columns.items()},
                       _ticks=[t.ticks()[i] for i in swapped])
    with pytest.raises(ValidityError, match="not sorted"):
        validate_table(unsorted)
    repeated = replace(t, columns={**t.columns, "t": Column("int", [1, 1, 1])}, _ticks=[1, 1, 1])
    with pytest.raises(ValidityError, match="duplicate \\(key, index\\) pair"):
        validate_table(repeated)
    short = replace(t, columns={**t.columns, "v": Column("int", [1, 2])})
    with pytest.raises(SchemaError, match="column 'v' has length 2, expected 3"):
        validate_table(short)
    as_text = replace(t, columns={**t.columns, "t": Column("text", t.column("t"))})
    with pytest.raises(SchemaError, match="does not match its adapter"):
        validate_table(as_text)
    # Kind None is a column with no present cell.
    no_kind = replace(t, columns={**t.columns, "v": Column(None, [1, None, 3])})
    with pytest.raises(SchemaError, match="column 'v' of kind None holds int cells"):
        validate_table(no_kind)


def test_validate_table_checks_stored_ticks():
    # Ticks that order and space the rows well but are not the cells' ticks.
    t = build({"t": [8, 9, 10, 11], "v": [1, 2, 3, 4]}, "t")
    bad = replace(t, _ticks=[0, 1, 2, 3])
    with pytest.raises(ValidityError, match="row 0"):
        validate_table(bad)


def test_validate_table_checks_stored_series_ends():
    t = build({"k": ["a", "a", "b"], "t": [1, 2, 1], "v": [1, 2, 3]}, "t", ("k",))
    assert t._ends == [2, 3]
    for ends in ([1, 3], [3], [2], None):
        with pytest.raises(ValidityError, match="series ends"):
            validate_table(replace(t, _ends=ends))


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


# --- build against a tuple model -------------------------------------------
#
# build sorts, checks uniqueness and finds the series' ends on one int per
# row.  The model below does the same work on (key cells..., tick) tuples,
# the way the contract states it: two rows share a pair when their cells
# compare equal, and a series is a run of equal key tuples.

_KEY_CELLS = {
    "int": st.integers(-2, 2) | st.just(10**20),
    # Equal cells of two types: 1 and 1.0, 0.0 and -0.0, 10**20 and 1e20;
    # 2**53 + 1 and 2.0**53 are neighbours no float tells apart.
    "real": st.sampled_from([1, 1.0, 0.0, -0.0, -2.5, 10**20, 1e20, 2**53 + 1, 2.0**53]),
    "text": st.sampled_from(["", "a", "b", "B", "ä"]),
    "bool": st.booleans(),
    # Time cells compare by ticks; their zone does not tell them apart.
    "time": st.builds(TimePoint, st.integers(-1, 2), st.just(Granularity.DAY),
                      st.sampled_from([None, "UTC", "Australia/Melbourne"])),
}


def _index_cells(kind, zone):
    """Index cells of ``kind`` drawn from a few ticks, and build's adapter."""
    step = st.sampled_from([1, 2, 3, 7])
    ticks = st.tuples(st.integers(-3, 4), step).map(lambda p: p[0] * p[1])
    if kind == "ordinal":
        return ticks, None
    if kind == "day":
        return ticks.map(lambda k: TimePoint(k, Granularity.DAY)), None
    if kind == "minute":
        return ticks.map(lambda k: TimePoint(27_000_000 + k, Granularity.MINUTE, zone)), None
    return ticks.map(lambda k: Semester(2000 + k // 2, k % 2 + 1)), SemesterAdapter()


@st.composite
def _raw_tables(draw):
    """Raw columns with 0-3 key columns, shuffled rows, and sometimes a
    repeated (key, index) pair."""
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_CELLS)), max_size=3))
    index_kind = draw(st.sampled_from(["ordinal", "day", "minute", "semester"]))
    index_cells, adapter = _index_cells(index_kind, draw(st.sampled_from([None, "UTC"])))
    missing = [draw(st.booleans()) for _ in kinds]
    row = st.tuples(
        index_cells,
        *(st.none() | _KEY_CELLS[k] if m else _KEY_CELLS[k] for k, m in zip(kinds, missing)),
    )
    rows = draw(st.lists(row, max_size=14))
    if draw(st.booleans()):
        # Keep the first row of each (key, index) pair: a valid table.
        first = {}
        for r in rows:
            first.setdefault((r[1:], adapter_ticks(adapter, r[0])), r)
        rows = list(first.values())
    elif rows and draw(st.booleans()):
        # Repeat a pair, through equal cells that are not the same cells.
        index_cell, *cells = rows[draw(st.integers(0, len(rows) - 1))]
        rows.append((index_cell, *map(_twin, kinds, cells)))
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    key = tuple(f"k{j}" for j in range(len(kinds)))
    raw = {"i": [r[0] for r in rows]}
    for j, kind in enumerate(kinds):
        raw[key[j]] = Column(kind, [r[j + 1] for r in rows])
    raw["v"] = list(range(len(rows)))
    return raw, key, adapter


def _twin(kind, cell):
    """A cell of a ``kind`` column equal to ``cell`` but of another type,
    sign or zone, where there is one."""
    if kind == "time" and cell is not None:
        return TimePoint(cell.ticks, cell.granularity, None if cell.zone else "UTC")
    if kind != "real" or cell is None:
        return cell
    if cell == 0:
        return -0.0 if math.copysign(1, cell) > 0 else 0.0
    if isinstance(cell, float):
        return int(cell) if cell.is_integer() else cell
    return float(cell) if float(cell) == cell else cell


def adapter_ticks(adapter, cell):
    if adapter is not None:
        return adapter.to_ticks(cell)
    return cell.ticks if isinstance(cell, TimePoint) else cell


def _values(raw, name):
    return getattr(raw[name], "values", raw[name])


def _exact(rows):
    """Rows as text that tells 1 from 1.0, -0.0 from 0.0 and zones apart."""
    return [repr(sorted(r.items())) for r in rows]


@settings(max_examples=300, deadline=None)
@given(_raw_tables(), st.data())
def test_build_matches_a_tuple_model(table, data):
    raw, key, adapter = table
    n = len(raw["v"])
    ticks = [adapter_ticks(adapter, c) for c in raw["i"]]
    pairs = [(tuple(_values(raw, k)[i] for k in key), ticks[i]) for i in range(n)]
    counts = Counter(pairs)
    repeated = [i for i in range(n) if counts[pairs[i]] > 1]
    model_rows = [{name: _values(raw, name)[i] for name in raw} for i in range(n)]

    if repeated:
        with pytest.raises(DuplicateIndexError) as info:
            build(raw, "i", key, adapter=adapter)
        report = info.value.report
        assert report.positions == repeated
        assert _exact(report.rows) == _exact(model_rows[i] for i in repeated)
        assert str(info.value).startswith(
            f"{len(repeated)} rows share a (key, index) pair; "
            f"first duplicate: key={pairs[repeated[0]][0]!r} index="
        )
        assert duplicates(raw, "i", key, adapter=adapter).positions == repeated
        return

    t = build(raw, "i", key, adapter=adapter)
    columns = {k: raw[k] for k in key}
    sort_keys = _sort_keys(columns, key, ticks)
    order = sorted(range(n), key=sort_keys.__getitem__)
    assert _exact(t.rows()) == _exact(model_rows[i] for i in order)
    assert t.ticks() == [ticks[i] for i in order]

    # Series: runs of equal key tuples in model order, keyed by the last row.
    groups, tick_groups = [], []
    for i, pos in enumerate(order):
        if not groups or pairs[pos][0] != pairs[order[i - 1]][0]:
            groups.append([None, i, i])
            tick_groups.append([])
        groups[-1][0], groups[-1][2] = pairs[pos][0], i + 1
        tick_groups[-1].append(ticks[pos])
    assert repr(key_groups(t)) == repr([(kt, range(a, b)) for kt, a, b in groups])
    assert t._ends == [b for _, _, b in groups]
    diffs = [b - a for ts in tick_groups for a, b in zip(ts, ts[1:])]
    if diffs:
        want = Interval.regular(t.adapter.granularity, math.gcd(*diffs), t.adapter.unit_label)
    else:
        want = Interval.unknown()
    assert t.interval == want

    # A subset's series are the runs of equal key tuples among its rows.
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep = [i for i in range(n) if mask[i]]
    kept_keys = [pairs[order[i]][0] for i in keep]
    runs = [j for j in range(1, len(keep)) if kept_keys[j] != kept_keys[j - 1]]
    assert take(t, keep)._ends == (runs + [len(keep)] if keep else [])


# --- row dicts ----------------------------------------------------------------

# Names that are no identifiers, or that clash with the identifiers of the
# compiled row constructor.
_ODD_NAMES = ["", "a b", "1x", "k0", "v0", "maker", "lambda", "__class__", "é"]
_ROW_NAME = st.one_of(st.sampled_from(_ODD_NAMES), st.text(max_size=3))
_ROW_KINDS = [st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3)]
_ROW_CELL = st.one_of(st.none(), *_ROW_KINDS)


def _naive_rows(names, columns):
    return [dict(zip(names, r)) for r in zip(*columns)]


def _assert_rows_match_naive(got, names, columns):
    want = _naive_rows(names, columns)
    assert got == want
    assert [list(row) for row in got] == [list(row) for row in want]


@given(st.lists(_ROW_NAME, min_size=1, max_size=40, unique=True), st.integers(0, 4), st.data())
def test_row_dicts_match_dict_of_zip(names, nrows, data):
    columns = [data.draw(st.lists(_ROW_CELL, min_size=nrows, max_size=nrows)) for _ in names]
    _assert_rows_match_naive(list(row_dicts(names, columns)), names, columns)


@pytest.mark.parametrize("width, nrows", [(300, 3), (300, 0), (7, 0), (0, 0)])
def test_row_dicts_of_wide_and_empty_tables(width, nrows):
    names = (_ODD_NAMES + [f"c{i}" for i in range(width)])[:width]
    columns = [[(name, i) for i in range(nrows)] for name in names]
    _assert_rows_match_naive(list(row_dicts(names, columns)), names, columns)


@given(st.lists(_ROW_NAME.filter(lambda n: n != "i"), max_size=12, unique=True), st.data())
def test_table_rows_match_dict_of_zip(names, data):
    nrows = data.draw(st.integers(0, 4))
    raw = {"i": list(range(nrows))}
    for name in names:
        cell = st.none() | data.draw(st.sampled_from(_ROW_KINDS))
        raw[name] = data.draw(st.lists(cell, min_size=nrows, max_size=nrows))
    t = build(raw, "i")
    _assert_rows_match_naive(list(t.rows()), t.column_names,
                             [t.column(c) for c in t.column_names])
