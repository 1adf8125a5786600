import io
import math

import pytest
from hypothesis import given, strategies as st

from temporaltable import (
    Column,
    DuplicateIndexError,
    Granularity,
    IngestConfig,
    IngestError,
    ParseError,
    SchemaError,
    TimePoint,
    build,
    guess_granularity,
    ingest,
    parse_timepoint,
    table_to_csv,
    timepoint as tp,
)
from temporaltable.ingest import (
    _parse_time_cells,
    read_cell,
    render_cell,
    typed_columns,
    write_csv,
)
from temporaltable.granularity import MS_PER_TICK
from conftest import DATA, assert_same_table
from test_adapters import Semester, SemesterAdapter


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_ingest_matches_hand_built(tb):
    got = ingest(
        IngestConfig(str(DATA / "tuberculosis.csv"), index="year",
                     key=("country", "gender"))
    )
    assert_same_table(got, tb)


def test_column_typing(tmp_path):
    path = write(
        tmp_path,
        "t,i,r,b,s,m\n"
        "1,4,1.5,true,abc,\n"
        "2,-7,2,false,8 streets,5\n",
    )
    t = ingest(IngestConfig(path, index="t"))
    assert dict(t.schema) == {
        "t": "time", "i": "int", "r": "real", "b": "bool", "s": "text", "m": "int",
    }
    assert t.column("r") == [1.5, 2.0]
    assert t.column("b") == [True, False]
    assert t.column("m") == [None, 5]


def test_bare_integer_index_guesses_year(tmp_path):
    path = write(tmp_path, "t,v\n2011,1\n2012,2\n")
    t = ingest(IngestConfig(path, index="t"))
    assert t.column("t") == [tp.year(2011), tp.year(2012)]
    assert t.interval.shorthand() == "[1Y]"


def test_ordinal_index_declared(tmp_path):
    path = write(tmp_path, "t,v\n1,a\n2,b\n")
    t = ingest(IngestConfig(path, index="t", time_format={"t": "ordinal"}))
    assert t.column("t") == [1, 2]
    assert t.interval.shorthand() == "[1]"


@pytest.mark.parametrize("cell", ["+5", "007", "\u0663", "1.0", " 4", "1_000"])
def test_ordinal_index_reads_the_json_int_grammar(tmp_path, cell):
    # The ordinal index reads its cells as int columns do: "+5", "007" and
    # the Arabic-Indic digit three are no ints, so the row is named.
    path = write(tmp_path, f"t,v\n-2,a\n0,b\n{cell},c\n")
    with pytest.raises(IngestError) as info:
        ingest(IngestConfig(path, index="t", time_format={"t": "ordinal"}))
    assert str(info.value).startswith(f"row 4: {cell!r} in column 't' is not an ordinal")
    assert info.value.row == 4


def test_declared_granularity_beats_guessing(tmp_path):
    # "2011" alone would guess year; declaring month reads it as a parse error,
    # while declaring year on month text fails, so declarations are honored.
    path = write(tmp_path, "t,v\n2011-07,1\n2011-09,2\n")
    t = ingest(IngestConfig(path, index="t", time_format={"t": "month"}))
    assert t.interval.shorthand() == "[2M]"
    with pytest.raises(IngestError, match="row 2"):
        ingest(IngestConfig(path, index="t", time_format={"t": "year"}))


def test_non_index_time_column(tmp_path):
    path = write(tmp_path, "t,due,v\n2011,2011-03,1\n2012,2012-09,2\n")
    t = ingest(IngestConfig(path, index="t", time_format={"due": "month"}))
    assert t.kind_of("due") == "time"
    assert t.column("due")[0].render() == "2011-03"


def test_zone_applies_to_parsed_times(tmp_path):
    path = write(tmp_path, "t,v\n2011-07-05 17:00,1\n2011-07-05 18:00,2\n")
    t = ingest(IngestConfig(path, index="t", zone="America/New_York"))
    assert t.adapter.zone == "America/New_York"
    assert t.column("t")[0].render() == "2011-07-05 17:00"
    utc = ingest(IngestConfig(path, index="t"))
    assert t.column("t")[0].ticks == utc.column("t")[0].ticks + 4 * 60


def test_flights_fixture_reports_duplicates():
    cfg = IngestConfig(
        str(DATA / "flights10.csv"),
        index="sched_dep_datetime",
        key=("flight_num",),
        regular=False,
    )
    with pytest.raises(DuplicateIndexError) as info:
        ingest(cfg)
    report = info.value.report
    assert len(report) == 2
    assert {r["tailnum"] for r in report.rows} == {"N601NK", "N639NK"}
    assert all(r["flight_num"] == "NK630" for r in report.rows)


def test_bad_cell_names_row(tmp_path):
    path = write(tmp_path, "t,v\n2011,1\nnever,2\n")
    with pytest.raises(IngestError, match="row 3") as info:
        ingest(IngestConfig(path, index="t"))
    assert info.value.row == 3


def test_unguessable_index(tmp_path):
    path = write(tmp_path, "t,v\nalpha,1\n")
    with pytest.raises(IngestError, match="declare"):
        ingest(IngestConfig(path, index="t"))


def test_unknown_granularity_name(tmp_path):
    path = write(tmp_path, "t,v\n2011,1\n")
    with pytest.raises(IngestError, match="fortnight"):
        ingest(IngestConfig(path, index="t", time_format={"t": "fortnight"}))


def test_structural_errors(tmp_path):
    with pytest.raises(IngestError, match="empty"):
        ingest(IngestConfig(write(tmp_path, ""), index="t"))
    with pytest.raises(IngestError, match="row 3") as info:
        ingest(IngestConfig(write(tmp_path, "t,v\n2011,1\n2012\n"), index="t"))
    assert info.value.row == 3
    with pytest.raises(SchemaError, match="duplicate"):
        ingest(IngestConfig(write(tmp_path, "t,t\n2011,1\n"), index="t"))
    with pytest.raises(SchemaError, match="no column"):
        ingest(IngestConfig(write(tmp_path, "a,b\n1,2\n"), index="t"))
    with pytest.raises(SchemaError):
        ingest(IngestConfig(write(tmp_path, "t,v\n1,2\n"), index="t", key=("t",)))


def test_header_only_file(tmp_path):
    t = ingest(IngestConfig(write(tmp_path, "t,v\n"), index="t"))
    assert t.nrows == 0
    assert t.interval.shorthand() == "[?]"


def test_custom_delimiter(tmp_path):
    path = write(tmp_path, "t;v\n2011;1\n2012;2\n")
    t = ingest(IngestConfig(path, index="t", delimiter=";"))
    assert t.column("v") == [1, 2]


def test_render_cell():
    assert render_cell(None) == ""
    assert render_cell(True) == "true"
    assert render_cell(False) == "false"
    assert render_cell(1.5) == "1.5"
    assert render_cell(0.1) == "0.1"
    assert render_cell(tp.month(2011, 7)) == "2011-07"
    assert render_cell("plain") == "plain"
    assert render_cell(42) == "42"


def test_csv_round_trip(tb, tmp_path):
    text = table_to_csv(tb)
    path = tmp_path / "out.csv"
    path.write_text(text)
    again = ingest(IngestConfig(str(path), index="year", key=("country", "gender")))
    assert_same_table(again, tb)


def test_kolkata_hourly_csv_round_trip(tmp_path):
    # Kolkata (UTC+05:30) writes its hours at :30, and reads them back.
    zone = "Asia/Kolkata"
    first = tp.hour(2011, 7, 5, 0).ticks
    hours = [TimePoint(first + i, Granularity.HOUR, zone) for i in range(24)]
    t = build({"ts": hours, "v": list(range(24))}, "ts")
    path = tmp_path / "out.csv"
    path.write_text(table_to_csv(t))
    assert path.read_text().splitlines()[1] == "2011-07-05 05:30,0"
    again = ingest(IngestConfig(str(path), "ts", time_format={"ts": "hour"}, zone=zone))
    assert_same_table(again, t)
    assert {h.zone for h in again.column("ts")} == {zone}


def test_csv_round_trip_quoting_and_missing(tmp_path):
    raw = 't,s,x\n2011,"a,b",1.25\n2012,,\n'
    path = write(tmp_path, raw)
    t = ingest(IngestConfig(path, index="t"))
    assert t.column("s") == ["a,b", None]
    assert t.column("x") == [1.25, None]
    out = table_to_csv(t)
    assert out == raw
    assert table_to_csv(t, io.StringIO()) is None


def test_table_to_csv_stream(tb):
    buf = io.StringIO()
    table_to_csv(tb, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "country,continent,gender,year,count"
    assert lines[1] == "Australia,Oceania,Female,2011,120"
    assert len(lines) == 13


# A cell is an int or a real when it is a JSON number (RFC 8259 section 6);
# any other text stays text.
@pytest.mark.parametrize(
    "text, want",
    [
        ("0", 0), ("-0", 0), ("12", 12), ("-7", -7), ("123456789012345678901", 123456789012345678901),
        ("1.5", 1.5), ("-0.0", -0.0), ("1e5", 1e5), ("2.5E-3", 2.5e-3), ("1e+16", 1e16),
        ("007", "007"), ("+5", "+5"), ("1_000", "1_000"), ("inf", "inf"), ("nan", "nan"),
        ("-Infinity", "-Infinity"), (" 2.5", " 2.5"), ("2.5 ", "2.5 "), ("12\n", "12\n"),
        (".5", ".5"), ("5.", "5."), ("1e", "1e"), ("0x10", "0x10"), ("\u0661\u0662", "\u0661\u0662"),
        ("true", True), ("FALSE", False), ("", None),
        # JSON numbers whose float is not finite read as text, as "inf" does.
        ("1e999", "1e999"), ("-1e400", "-1e400"), ("1e308", 1e308), ("1e-999", 0.0),
    ],
)
def test_read_cell_number_grammar(text, want):
    # repr tells 1 from 1.0 and True, and -0.0 from 0.0.
    assert repr(read_cell(text)) == repr(want)


def test_one_non_number_makes_a_text_column(tmp_path):
    path = write(tmp_path, "t,i,r,n\n1,1,1.5,2\n2,+5,inf,007\n")
    t = ingest(IngestConfig(path, index="t", time_format={"t": "ordinal"}))
    assert dict(t.schema) == {"t": "int", "i": "text", "r": "text", "n": "text"}
    assert t.column("r") == ["1.5", "inf"]


def test_a_number_too_large_for_a_float_makes_a_text_column(tmp_path):
    path = write(tmp_path, "t,r,s,i\n1,1.5,1e308,1e999\n2,-1e999,,10\n")
    t = ingest(IngestConfig(path, index="t", time_format={"t": "ordinal"}))
    assert dict(t.schema) == {"t": "int", "r": "text", "s": "real", "i": "text"}
    assert t.column("r") == ["1.5", "-1e999"]
    assert t.column("i") == ["1e999", "10"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_csv_writers_refuse_non_finite_reals(bad):
    t = build({"t": [1, 2, 3, 4], "v": Column("real", [1, None, bad, bad]), "w": [2.5, bad, 1.0, 0.0]},
              "t")
    message = f"real column 'v' holds {bad!r} at row 2; CSV numbers must be finite"
    buf = io.StringIO()
    with pytest.raises(SchemaError) as info:
        table_to_csv(t, buf)
    assert (str(info.value), buf.getvalue()) == (message, "")
    with pytest.raises(SchemaError) as info:
        write_csv(buf, ["v", "w"], [[None, 1.5], [2, bad]])
    assert (str(info.value), buf.getvalue()) == (
        f"real column 'w' holds {bad!r} at row 1; CSV numbers must be finite", "")


def test_csv_writers_keep_large_finite_reals():
    t = build({"t": [1, 2, 3], "v": Column("real", [1e308, 1e308, 10**400])}, "t")
    assert table_to_csv(t) == f"t,v\n1,1e+308\n2,1e+308\n3,{10**400}\n"


# --- per-column caches: the same result as reading cell by cell -------------

ODD_CELLS = (
    "2021-02-30", "2021-02-30 01:00", "2021-01-01 24:00", "0000-01-01",
    "\u0662\u0660\u0662\u0661-\u0660\u0661-\u0660\u0661",  # Arabic-Indic digits
    "2021 Q5", "2020 W53", "2021 W54", "2021-13", "2021 Jul", "2021 Foo",
    "2021-04-04 02:00", "2021-04-04T02:30", "2021-10-03 02:30", " 2021-01-01 ",
    "2021-01-01 10:00:00.5", "12", "+5", "007", "-3", "never",
)


def _rendered_texts(g):
    if g is Granularity.ORDINAL:
        return st.integers(-50, 50).map(str)
    if g.is_subdaily:
        # Ticks up to a day before and a few after the Australia/Melbourne
        # fall-back at 2021-04-04 03:00 local time (16:00 UTC the day before).
        unit = MS_PER_TICK[g]
        fallback = 1_617_465_600_000 // unit
        ticks = st.integers(fallback - 86_400_000 // unit, fallback + 3)
    else:
        ticks = st.integers(-800, 800)
    return ticks.map(lambda k: TimePoint(k, g).render())


@st.composite
def _time_column(draw, g):
    """Raw cells that repeat: a few distinct texts, each on several rows."""
    pool = draw(st.lists(st.one_of(st.sampled_from(ODD_CELLS), _rendered_texts(g)),
                         min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool + [""]), max_size=25))


def _cell_by_cell(cells, gran_name, zone):
    """Each cell of column "t" read on its own: (values, None, None), or
    (None, the first error's text, its row)."""
    if gran_name == "ordinal":
        values = []
        for row, raw in enumerate(cells, start=2):
            try:
                values += _parse_time_cells("t", (raw,), "ordinal", zone)
            except IngestError as exc:
                return None, str(exc).replace("row 2:", f"row {row}:", 1), row
        return values, None, None
    if gran_name is None:
        first = next((raw for raw in cells if raw), None)
        g = first and guess_granularity(first)
        if first and g is None:
            return None, (f"cannot guess the time granularity of column 't' from "
                          f"{first!r}; declare one with a time format"), None
    else:
        g = Granularity(gran_name)
    values = []
    for row, raw in enumerate(cells, start=2):
        try:
            values.append(parse_timepoint(raw, g, zone) if raw else None)
        except ParseError as exc:
            return None, f"row {row}: {exc}", row
    return values, None, None


@given(data=st.data())
@pytest.mark.parametrize(
    "gran_name", [g.value for g in Granularity if g is not Granularity.ORDINAL] + ["ordinal", None])
def test_time_column_matches_cell_by_cell_parsing(gran_name, data):
    g = Granularity(gran_name) if gran_name else data.draw(st.sampled_from(list(Granularity)))
    cells = data.draw(_time_column(g))
    zone = data.draw(st.sampled_from([None, "UTC", "Australia/Melbourne"]))
    cfg = IngestConfig("t.csv", index="t", time_format={"t": gran_name} if gran_name else {},
                       zone=zone)
    rows = [[raw, "1"] for raw in cells]
    want, error, row = _cell_by_cell(cells, gran_name, zone)
    if error is not None:
        with pytest.raises(IngestError) as info:
            typed_columns(cfg, ["t", "v"], rows)
        assert (str(info.value), info.value.row) == (error, row)
        return
    got = typed_columns(cfg, ["t", "v"], rows)["t"]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, TimePoint):
            assert (a.ticks, a.granularity, a.zone) == (b.ticks, b.granularity, b.zone)
        else:
            assert type(a) is type(b) and a == b


def _row_by_row(t) -> str:
    """The table written one row at a time through render_cell."""
    buf = io.StringIO()
    names = t.column_names
    write_csv(buf, names, ([t.columns[c].values[i] for c in names] for i in range(t.nrows)))
    return buf.getvalue()


_CELLS = {
    "int": st.integers(),
    "real": st.one_of(st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
                      st.integers(-10**20, 10**20)),
    "bool": st.booleans(),
    "text": st.text(),
    "time": st.builds(
        TimePoint,
        st.integers(-3, 3) | st.integers(-10**7, 10**7),
        st.just(Granularity.HOUR),
        st.sampled_from([None, "UTC", "utc", "Australia/Melbourne", "America/New_York"]),
    ),
}

_INDEXES = {
    "ordinal": lambda n: (list(range(n)), None),
    "day": lambda n: ([TimePoint(k, Granularity.DAY) for k in range(n)], None),
    "semester": lambda n: ([Semester(2000 + k // 2, k % 2 + 1) for k in range(n)],
                           SemesterAdapter()),
}


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 12))
    idx, adapter = _INDEXES[draw(st.sampled_from(sorted(_INDEXES)))](n)
    cols = {"i": idx}
    for j in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sorted(_CELLS)))
        # One column in four is all missing.
        cells = st.none() if draw(st.integers(0, 3)) == 0 else st.none() | _CELLS[kind]
        cols[f"c{j}"] = Column(kind, draw(st.lists(cells, min_size=n, max_size=n)))
    return cols, adapter


@given(_tables())
def test_table_to_csv_matches_row_by_row_rendering(cols_adapter):
    cols, adapter = cols_adapter
    t = build(cols, "i", adapter=adapter)
    non_finite = [
        (name, row)
        for name, col in t.columns.items() if col.kind == "real"
        for row, v in enumerate(col.values) if isinstance(v, float) and not math.isfinite(v)
    ]
    if non_finite:
        # Both writers refuse the first inf or nan cell, column by column,
        # before writing anything.
        name, row = non_finite[0]
        for write in (lambda buf: table_to_csv(t, buf), lambda buf: buf.write(_row_by_row(t))):
            buf = io.StringIO()
            with pytest.raises(SchemaError, match=f"^real column '{name}' holds .* at row {row};"):
                write(buf)
            assert buf.getvalue() == ""
        return
    want = _row_by_row(t)
    assert table_to_csv(t) == want
    buf = io.StringIO()
    table_to_csv(t, buf)
    assert buf.getvalue() == want


def test_table_to_csv_renders_each_kind_like_render_cell():
    t = build(
        {
            "t": [tp.day(2021, 1, 1), tp.day(2021, 1, 2), tp.day(2021, 1, 3)],
            "r": Column("real", [1, -0.0, 1e16]),
            "b": [True, None, False],
            "h": [TimePoint(0, Granularity.HOUR, "UTC"), TimePoint(0, Granularity.HOUR),
                  TimePoint(0, Granularity.HOUR, "Australia/Melbourne")],
            "m": Column("int", [None, None, None]),
        },
        "t",
    )
    assert table_to_csv(t) == _row_by_row(t) == (
        "t,r,b,h,m\n"
        "2021-01-01,1,true,1970-01-01 00:00,\n"
        "2021-01-02,-0.0,,1970-01-01 00:00,\n"
        "2021-01-03,1e+16,false,1970-01-01 10:00,\n"
    )
