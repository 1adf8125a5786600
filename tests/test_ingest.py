import csv
import io
import math
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from temporaltable import (
    Column,
    DuplicateIndexError,
    Granularity,
    IngestConfig,
    IngestError,
    MissingIndexError,
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
from temporaltable.adapters import OrdinalIndex
from temporaltable.ingest import (
    _first_non_finite,
    _parse_time_cells,
    read_cell,
    read_rows,
    render_cell,
    typed_columns,
    write_csv,
)
from temporaltable.granularity import MS_PER_TICK
from conftest import DATA, assert_same_table
from test_adapters import Semester, SemesterAdapter
from test_timepoint import EPOCH, _render_by_datetime


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
    assert str(info.value).startswith(f"row 4, column 't': {cell!r} is not an ordinal")
    assert info.value.row == 4


def test_ordinal_csv_round_trip(tmp_path):
    # An ordinal index is plain ints, so what table_to_csv writes reads
    # back as the same table: an OrdinalIndex of int cells, same interval.
    t = build({"k": ["a", "a", "b", "b", "b"], "t": [-4, 2, 0, 3, 9], "v": [1, 2, 3, 4, 5]},
              "t", ("k",))
    path = write(tmp_path, table_to_csv(t))
    back = ingest(IngestConfig(path, index="t", key=("k",), time_format={"t": "ordinal"}))
    assert back == t
    assert isinstance(back.adapter, OrdinalIndex)
    assert back.kind_of("t") == "int" and back.interval == t.interval
    assert back.interval.shorthand() == "[3]"
    bad = write(tmp_path, table_to_csv(t).replace("\nb,3,", "\nb,03,"), "bad.csv")
    with pytest.raises(IngestError, match="^row 5, column 't': '03' is not an ordinal"):
        ingest(IngestConfig(bad, index="t", key=("k",), time_format={"t": "ordinal"}))


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


def test_a_time_format_naming_no_column_is_refused(tmp_path):
    path = write(tmp_path, "day,v\n2011-07-05,1\n")
    with pytest.raises(SchemaError, match=r"t\.csv: no column named 'nosuch'$"):
        ingest(IngestConfig(path, index="day", time_format={"nosuch": "day"}))


def test_a_key_naming_no_column_is_refused(tmp_path):
    path = write(tmp_path, "day,v\n2011-07-05,1\n")
    with pytest.raises(SchemaError, match=r"t\.csv: no column named 'nosuch'$"):
        ingest(IngestConfig(path, index="day", key=("v", "nosuch")))


def test_an_empty_index_cell_is_named_by_its_file_row(tmp_path):
    # The header is row 1, as for a cell that does not parse.
    path = write(tmp_path, "day,v\n2011-07-05,1\n,2\n2011-07-07,3\n")
    with pytest.raises(MissingIndexError,
                       match=r"^index column 'day' has a missing value at row 3$"):
        ingest(IngestConfig(path, index="day"))
    path = write(tmp_path, "day,v\n2011-07-05,1\nnever,2\n")
    with pytest.raises(IngestError, match=r"^row 3, column 'day': "):
        ingest(IngestConfig(path, index="day"))


def test_blank_lines_that_end_a_file_are_ignored(tmp_path):
    text = "day,v\n2011-07-05,1\n2011-07-06,2\n"
    want = ingest(IngestConfig(write(tmp_path, text), index="day"))
    for end in ("\n", "\n\n", "\r\n\r\n"):
        got = ingest(IngestConfig(write(tmp_path, text + end, "end.csv"), index="day"))
        assert_same_table(got, want)
    # A lone empty field is written "", which reads back as one missing cell.
    assert read_rows(IngestConfig(write(tmp_path, 'v\n1\n""\n\n'), index="v"))[1] == [["1"], [""]]


def test_a_blank_line_between_rows_is_refused_by_its_row(tmp_path):
    path = write(tmp_path, "day,v\n2011-07-05,1\n\n2011-07-06,2\n\n")
    with pytest.raises(IngestError, match=r"t\.csv: row 3 has 0 fields, header has 2$") as info:
        ingest(IngestConfig(path, index="day"))
    assert info.value.row == 3


def test_a_byte_order_mark_is_not_part_of_the_first_header_name(tmp_path):
    text = "day,v\r\n2011-07-05,1\r\n2011-07-06,2\r\n"
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(text.encode("utf-8-sig"))
    got = ingest(IngestConfig(str(marked), index="day"))
    assert list(got.columns) == ["day", "v"]
    assert_same_table(got, ingest(IngestConfig(str(plain), index="day")))
    # Only a leading mark is dropped: a mark inside a cell stays its text.
    inner = tmp_path / "inner.csv"
    inner.write_bytes("day,v\n2011-07-05,\ufeffa\n".encode("utf-8"))
    assert ingest(IngestConfig(str(inner), index="day")).column("v") == ["\ufeffa"]


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


@pytest.mark.parametrize("g", [g for g in Granularity if g.is_subdaily])
def test_zoned_subdaily_csv_round_trip_across_a_dst_fall_back(g, tmp_path):
    # Melbourne fell back at 03:00 local (UTC+11) on 2021-04-04, 16:00 UTC
    # the day before; each local time of the hour before came twice.
    zone = "Australia/Melbourne"
    unit = MS_PER_TICK[g]
    fallback, hour = 1_617_465_600_000, 3_600_000
    step = max(900_000 // unit, 1)  # quarter hours, or hours
    points = [TimePoint((fallback - 2 * hour) // unit + i * step, g, zone) for i in range(17)]
    t = build({"ts": points, "v": list(range(17))}, "ts")
    text = table_to_csv(t)
    repeated = [p for p in points if fallback - hour <= p.ticks * unit < fallback + hour]
    assert sum("+1" in line for line in text.splitlines()) == len(repeated) == (
        2 if g is Granularity.HOUR else 8)
    path = tmp_path / "out.csv"
    path.write_text(text)
    again = ingest(IngestConfig(str(path), "ts", time_format={"ts": g.value}, zone=zone))
    assert_same_table(again, t)


def test_csv_round_trip_quoting_and_missing(tmp_path):
    raw = 't,s,x\n2011,"a,b",1.25\n2012,,\n'
    path = write(tmp_path, raw)
    t = ingest(IngestConfig(path, index="t"))
    assert t.column("s") == ["a,b", None]
    assert t.column("x") == [1.25, None]
    out = table_to_csv(t)
    assert out == raw
    assert table_to_csv(t, io.StringIO()) is None


# Instants near clock changes: the Australia/Melbourne fall-back at
# 2021-04-03 16:00 UTC and the America/New_York one at 2021-11-07 06:00 UTC.
_CLOCK_CHANGES_MS = (1_617_465_600_000, 1_636_264_800_000)
# Text cells that CSV can carry back: non-empty (an empty field is
# missing), not read as a number or a boolean, and UTF-8 (no lone
# surrogates).
_ROUND_TRIP_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda s: isinstance(read_cell(s), str))
_ROUND_TRIP_CELLS = {
    "real": st.floats(allow_nan=False, allow_infinity=False),
    "int": st.integers(),
    "bool": st.booleans(),
    "text": _ROUND_TRIP_TEXT,
}


def _index_cells(g, zone, clock_change_ms):
    """Index cells of granularity ``g`` in ``zone``; sub-daily ones lie
    within 30 hours of ``clock_change_ms``."""
    if g is Granularity.ORDINAL:
        return st.integers(-50, 50)
    if not g.is_subdaily:
        return st.builds(TimePoint, st.integers(-800, 800), st.just(g))
    unit = MS_PER_TICK[g]
    base = clock_change_ms // unit
    hours = st.integers(-30, 30).map(lambda h: h * (3_600_000 // unit))
    within = st.integers(0, 3_600_000 // unit - 1)
    return st.builds(lambda h, k: TimePoint(base + h + k, g, zone), hours, within)


@st.composite
def _csv_round_trip_tables(draw):
    """A table of every index granularity, sub-daily zones included, keys
    whose names need quoting, and one measure column of each cell kind."""
    g = draw(st.sampled_from(list(Granularity)))
    zone = draw(st.sampled_from(
        [None, "UTC", "Australia/Melbourne", "America/New_York", "Asia/Kolkata"]
    )) if g.is_subdaily else None
    key = tuple(draw(st.permutations(["c x", "d,e"]))[: draw(st.integers(0, 2))])
    key_cells = {
        k: st.none() | draw(st.sampled_from([st.sampled_from([1, 2]), _ROUND_TRIP_TEXT]))
        for k in key
    }
    measure = st.none() | _ROUND_TRIP_CELLS[draw(st.sampled_from(sorted(_ROUND_TRIP_CELLS)))]
    index = _index_cells(g, zone, draw(st.sampled_from(_CLOCK_CHANGES_MS)))
    rows = draw(st.lists(
        st.fixed_dictionaries({"t": index, "v": measure, **key_cells}), max_size=12,
        unique_by=lambda r: (*(r[k] for k in key), r["t"])))
    cols = {c: [r[c] for r in rows] for c in ("t", *key, "v")}
    return build(cols, "t", key, regular=draw(st.booleans())), g, zone


@settings(max_examples=300, deadline=None)
@given(drawn=_csv_round_trip_tables())
def test_ingest_of_table_to_csv_gives_back_the_table(tmp_path_factory, drawn):
    t, g, zone = drawn
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    path.write_text(table_to_csv(t), encoding="utf-8", newline="")
    again = ingest(IngestConfig(str(path), "t", t.key, t.declared_regular,
                                time_format={"t": g.value}, zone=zone))
    assert again.interval == t.interval
    assert again.schema == t.schema
    assert again.to_dict() == t.to_dict()
    zones = lambda tab: [getattr(v, "zone", None) for v in tab.column("t")]
    assert zones(again) == zones(t)


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


# One digit more than the interpreter converts between int and text.
LONG_DIGITS = sys.get_int_max_str_digits() + 1


@pytest.mark.parametrize("time_format", [{}, {"v": "ordinal"}])
def test_an_int_longer_than_the_interpreter_reads_is_an_ingest_error(tmp_path, time_format):
    path = write(tmp_path, f"t,v\n1,7\n2,{'1' * LONG_DIGITS}\n")
    cfg = IngestConfig(path, index="t", time_format={"t": "ordinal", **time_format})
    with pytest.raises(IngestError) as info:
        ingest(cfg)
    assert info.value.row == 3
    assert str(info.value) == (
        f"row 3, column 'v': a {LONG_DIGITS}-digit int is longer than the "
        f"{LONG_DIGITS - 1} digits int() reads"
    )


def test_csv_writers_refuse_an_int_too_long_to_write():
    big = 10 ** LONG_DIGITS
    message = (
        f"column 'v' holds an int of more than {LONG_DIGITS - 1} digits at row 1; "
        "str() writes none that long"
    )
    buf = io.StringIO()
    with pytest.raises(SchemaError) as info:
        table_to_csv(build({"t": [1, 2], "s": ["a", "b"], "v": [5, big]}, "t"), buf)
    assert (str(info.value), buf.getvalue()) == (message, "")
    with pytest.raises(SchemaError) as info:
        write_csv(buf, ["t", "v"], [[1, None], [2, big]])
    assert (str(info.value), buf.getvalue()) == (message, "")
    # So does an ordinal index.
    with pytest.raises(SchemaError, match="^column 't' holds an int of more than"):
        table_to_csv(build({"t": [1, big]}, "t"))


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
    # A column that mixes in text cells is scanned too.
    with pytest.raises(SchemaError) as info:
        write_csv(buf, ["w"], [["x"], [1.5], [bad]])
    assert (str(info.value), buf.getvalue()) == (
        f"real column 'w' holds {bad!r} at row 2; CSV numbers must be finite", "")


def test_csv_writers_refuse_an_empty_text_cell(tmp_path):
    # An empty text and a missing cell would both be an empty field, so a
    # key of "" and None would read back as one series with repeated pairs.
    t = build({"k": ["", None, "", None], "t": [1, 1, 2, 2], "v": [1, 2, 3, 4]}, "t", ("k",))
    buf = io.StringIO()
    with pytest.raises(SchemaError) as info:
        table_to_csv(t, buf)
    assert (str(info.value), buf.getvalue()) == (
        "column 'k' holds an empty text at row 0; CSV reads an empty field as missing", "")
    with pytest.raises(SchemaError) as info:
        write_csv(buf, ["v", "w"], [[None, "x"], [1.5, "y"], [2, ""], [3, ""]])
    assert (str(info.value), buf.getvalue()) == (
        "column 'w' holds an empty text at row 2; CSV reads an empty field as missing", "")
    # A non-key column: "" would read back as missing without a word.
    with pytest.raises(SchemaError, match="^column 'w' holds an empty text at row 1;"):
        table_to_csv(build({"t": [1, 2], "w": ["a", ""]}, "t"))


def test_write_csv_renders_each_distinct_time_point_once(monkeypatch):
    calls = []
    render = TimePoint.render

    def counted(point):
        calls.append((point.ticks, point.zone))
        return render(point)

    monkeypatch.setattr(TimePoint, "render", counted)
    day = tp.day(2020, 1, 1)
    hour = TimePoint(0, Granularity.HOUR, "Australia/Melbourne")
    buf = io.StringIO()
    write_csv(buf, ["d", "h", "mixed"], [[day, hour, day], [day, None, "x"], [tp.day(2020, 1, 1),
              TimePoint(0, Granularity.HOUR), day]])
    assert buf.getvalue() == (
        "d,h,mixed\n"
        "2020-01-01,1970-01-01 10:00,2020-01-01\n"
        "2020-01-01,,x\n"
        "2020-01-01,1970-01-01 00:00,2020-01-01\n"
    )
    # A column of points renders each (ticks, zone) once; one that mixes in
    # other cells renders cell by cell.
    assert calls == [(day.ticks, None), (0, "Australia/Melbourne"), (0, None),
                     (day.ticks, None), (day.ticks, None)]


def test_write_csv_writes_a_time_point_subclass_as_render_cell_does():
    class Stamp(TimePoint):
        __slots__ = ()

    rows = [[Stamp(0, Granularity.DAY), 1], [None, 2], [Stamp(0, Granularity.HOUR, "Asia/Kolkata"), 3]]
    buf = io.StringIO()
    write_csv(buf, ["s", "v"], rows)
    assert buf.getvalue() == "s,v\n1970-01-01,1\n,2\n1970-01-01 05:30,3\n"
    assert buf.getvalue().splitlines()[1:] == [",".join(map(render_cell, row)) for row in rows]


def test_csv_writers_keep_large_finite_reals():
    t = build({"t": [1, 2, 3], "v": Column("real", [1e308, 1e308, 10**400])}, "t")
    assert table_to_csv(t) == f"t,v\n1,1e+308\n2,1e+308\n3,{10**400}\n"
    # Cells whose sum overflows to inf, and none of them inf.
    t = build({"t": [1, 2], "v": [1e308, 1e308]}, "t")
    assert table_to_csv(t) == "t,v\n1,1e+308\n2,1e+308\n"


def _plain_scan(cells):
    """The row of the first inf or nan float among ``cells``, cell by cell."""
    return next((row for row, v in enumerate(cells)
                 if isinstance(v, float) and not math.isfinite(v)), None)


# Real cells for the one-sum finite check: floats, missing cells, inf and
# nan, cells whose sum overflows, and ints too large for a float.
_REAL_CELLS = st.one_of(
    st.floats(), st.none(), st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0]),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-10**20, 10**20), st.integers(10**309, 10**320).map(lambda k: k * (-1) ** k),
)


@settings(max_examples=300)
@given(st.lists(st.lists(_REAL_CELLS, max_size=12), min_size=1, max_size=3))
def test_finite_check_matches_a_plain_scan(columns):
    for cells in columns:
        assert _first_non_finite(cells) == _plain_scan(cells)
    n = max(map(len, columns))
    columns = [cells + [None] * (n - len(cells)) for cells in columns]
    names = [f"v{j}" for j in range(len(columns))]
    t = build({"i": list(range(n)), **{name: Column("real", cells)
                                         for name, cells in zip(names, columns)}}, "i")
    bad = next(((name, row) for name, cells in zip(names, columns)
                if (row := _plain_scan(cells)) is not None), None)
    rows = [[i, *cells] for i, *cells in zip(range(n), *columns)]
    writers = (lambda buf: table_to_csv(t, buf), lambda buf: write_csv(buf, ["i", *names], rows))
    for write in writers:
        buf = io.StringIO()
        if bad is None:
            write(buf)
            assert buf.getvalue() == _row_by_row(t)
            continue
        name, row = bad
        with pytest.raises(SchemaError) as info:
            write(buf)
        v = dict(zip(names, columns))[name][row]
        assert (str(info.value), buf.getvalue()) == (
            f"real column {name!r} holds {v!r} at row {row}; CSV numbers must be finite", "")



def test_write_csv_checks_only_columns_that_hold_a_float(monkeypatch):
    ingest_module = sys.modules["temporaltable.ingest"]
    checked = []
    real_check = ingest_module._first_non_finite
    monkeypatch.setattr(ingest_module, "_first_non_finite",
                        lambda cells: checked.append(cells) or real_check(cells))
    day = TimePoint(0, Granularity.DAY)
    header = ["s", "i", "d", "r", "m"]
    rows = [["a", 1, day, 0.5, "x"], ["b", None, None, None, 2.5], ["c", 3, day, 1.5, None]]
    buf = io.StringIO()
    write_csv(buf, header, rows)
    assert checked == [(0.5, None, 1.5), ("x", 2.5, None)]
    assert buf.getvalue() == "s,i,d,r,m\na,1,1970-01-01,0.5,x\nb,,,,2.5\nc,3,1970-01-01,1.5,\n"
    # A float in a column of other cells keeps its column and row.
    rows[2][4] = math.inf
    with pytest.raises(SchemaError, match=r"^real column 'm' holds inf at row 2; "):
        write_csv(io.StringIO(), header, rows)


# --- time text written from ticks, against datetime -------------------------

WRITTEN = [Granularity.DAY, *(g for g in Granularity if g.is_subdaily)]


def _text_by_datetime(point):
    """The text of a day or sub-daily point by ``datetime`` arithmetic;
    OverflowError or ValueError when it has none."""
    if point.granularity is Granularity.DAY:
        return (EPOCH + timedelta(days=point.ticks)).isoformat()
    return _render_by_datetime(point)


@st.composite
def _written_ticks(draw, g):
    """A few distinct ticks at ``g``: anywhere in years 1 to 9999, at and
    around midnights, around the epoch, and now and then just outside that
    range or far past it."""
    per_day = tp._TICKS_PER_DAY[g]
    lo = (1 - tp._EPOCH_ORDINAL) * per_day
    hi = (tp._MAX_ORDINAL + 1 - tp._EPOCH_ORDINAL) * per_day - 1
    near_midnight = st.builds(lambda d, off: d * per_day + off,
                              st.integers(lo // per_day, hi // per_day), st.integers(-2, 2))
    tick = st.one_of(st.integers(lo, hi), near_midnight.filter(lambda k: lo <= k <= hi),
                     st.integers(-3 * per_day, 3 * per_day))
    if draw(st.integers(0, 9)) == 0:
        tick |= st.sampled_from([lo - 1, hi + 1, 3_000_000 * per_day])
    return draw(st.lists(tick, min_size=1, max_size=8, unique=True))


@settings(max_examples=300, deadline=None)
@given(g=st.sampled_from(WRITTEN), zone=st.sampled_from([None, "UTC", "Australia/Melbourne"]),
       data=st.data())
def test_csv_time_text_matches_datetime(g, zone, data):
    # Two series share some ticks, so the index repeats them; the time
    # column holds the same points in any order, with gaps.
    ticks = data.draw(_written_ticks(g))
    points = [TimePoint(k, g, zone) for k in ticks]
    a = data.draw(st.lists(st.sampled_from(points), min_size=1, unique=True))
    b = data.draw(st.lists(st.sampled_from(points), unique=True))
    n = len(a) + len(b)
    w = data.draw(st.lists(st.none() | st.sampled_from(points), min_size=n, max_size=n))
    t = build({"k": ["a"] * len(a) + ["b"] * len(b), "t": a + b, "w": w}, "t", ("k",))
    names = t.column_names
    rows = [[t.columns[c].values[i] for c in names] for i in range(t.nrows)]

    def text(v):
        try:
            return "" if v is None else _text_by_datetime(v)
        except (OverflowError, ValueError):
            return None

    texts = [[k, *map(text, points)] for k, *points in rows]
    # The first point with no text, column by column, then row by row.
    bad = next(((name, row) for j, name in enumerate(names)
                for row, r in enumerate(texts) if r[j] is None), None)
    writers = (lambda buf: table_to_csv(t, buf), lambda buf: write_csv(buf, names, rows))
    for write in writers:
        buf = io.StringIO()
        if bad is None:
            write(buf)
            assert buf.getvalue() == "".join(f"{','.join(r)}\n" for r in [names, *texts])
            continue
        # A point that has no text is refused before anything is written.
        with pytest.raises(SchemaError, match=rf"^column '{bad[0]}' holds a time point at "
                                              rf"row {bad[1]} \({g.value} tick -?[0-9]+\) "
                                              "that cannot be written: "):
            write(buf)
        assert buf.getvalue() == ""


def test_csv_writers_refuse_a_point_past_year_9999():
    for g, ticks, why in ((Granularity.DAY, 3_000_000, "year 10183 is out of range"),
                          (Granularity.HOUR, 3_000_000 * 24, "date value out of range")):
        t = build({"d": [TimePoint(0, g), TimePoint(ticks, g)], "v": [1, 2]}, "d")
        message = (f"column 'd' holds a time point at row 1 ({g.value} tick {ticks}) "
                   f"that cannot be written: {why}")
        buf = io.StringIO()
        with pytest.raises(SchemaError) as info:
            table_to_csv(t, buf)
        assert (str(info.value), buf.getvalue()) == (message, "")
        with pytest.raises(SchemaError) as info:
            write_csv(buf, ["d", "v"], [[TimePoint(0, g), 1], [TimePoint(ticks, g), 2]])
        assert (str(info.value), buf.getvalue()) == (message, "")
        # A column that mixes in other cells is refused the same way.
        with pytest.raises(SchemaError) as info:
            write_csv(buf, ["d"], [["x"], [TimePoint(ticks, g)]])
        assert (str(info.value), buf.getvalue()) == (message, "")
        # The point itself keeps datetime's error.
        with pytest.raises((ValueError, OverflowError), match=why):
            TimePoint(ticks, g).render()


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
                return None, str(exc).replace("row 2,", f"row {row},", 1), row
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
            return None, f"row {row}, column 't': {exc}", row
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
    empty_texts = [
        (name, col.values.index(""))
        for name, col in t.columns.items() if col.kind == "text" and "" in col.values
    ]
    if non_finite or empty_texts:
        # Both writers refuse the first inf or nan cell, column by column,
        # and then the first empty text, before writing anything.
        (name, row), what = (non_finite[0], "real column") if non_finite else (
            empty_texts[0], "column")
        for write in (lambda buf: table_to_csv(t, buf), lambda buf: buf.write(_row_by_row(t))):
            buf = io.StringIO()
            with pytest.raises(SchemaError, match=f"^{what} '{name}' holds .* at row {row};"):
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


# --- the writer against csv.writer --------------------------------------------

# csv.writer stays the oracle, in tests only.  It runs with CRLF row ends,
# which every Python from 3.10 to 3.13 quotes a field holding CR or LF
# under; with LF row ends, Python 3.11 leaves a bare CR unquoted, which RFC
# 4180 forbids, so there the rule is pinned in
# test_writer_quotes_by_rfc_4180 instead.
def _oracle(header, rows) -> str:
    """``header`` and ``rows`` (cells already rendered) as csv.writer writes
    them, each row's CRLF turned into LF."""
    lines = []
    for row in (header, *rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


# Text that needs quotes or looks as if it might: quotes, commas, CR, LF
# and spaces at either end, among other characters (NUL aside, which some
# csv readers refuse, and lone surrogates, which no UTF-8 file can hold).
_FIELD_CHARS = st.sampled_from(list('ab ,"\r\n')) | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\x00")
_FIELD_TEXT = st.text(_FIELD_CHARS, max_size=6)
# A header may be empty; a text cell may not, since the writers refuse one.
_CELL_TEXT = st.text(_FIELD_CHARS, min_size=1, max_size=6)
_WRITTEN_CELLS = st.none() | _CELL_TEXT | st.integers() | st.booleans() | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def _header_and_rows(draw, cells=_WRITTEN_CELLS):
    header = draw(st.lists(_FIELD_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)),
                         max_size=6))
    return header, rows


@given(_header_and_rows())
def test_write_csv_matches_csv_writer(header_rows):
    header, rows = header_rows
    buf = io.StringIO()
    write_csv(buf, header, rows)
    assert buf.getvalue() == _oracle(header, [[render_cell(v) for v in row] for row in rows])


@given(_header_and_rows(st.none() | _CELL_TEXT))
def test_table_to_csv_of_text_columns_matches_csv_writer(header_rows):
    header, rows = header_rows
    names = ["i"] + [f"{name}." for name in header]  # none is the index
    columns = [list(range(len(rows))), *map(list, zip(*rows))] if rows else [[]] * len(names)
    t = build({n: Column("text", c) if n != "i" else c for n, c in zip(names, columns)}, "i")
    want = _oracle(names, [[render_cell(v) for v in row] for row in zip(*columns)])
    assert table_to_csv(t) == want


@given(header_rows=_header_and_rows())
def test_read_rows_gives_back_the_written_cells(tmp_path_factory, header_rows):
    header, rows = header_rows
    buf = io.StringIO()
    write_csv(buf, header, rows)
    path = tmp_path_factory.getbasetemp() / "written.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    assert read_rows(IngestConfig(str(path), index=header[0])) == (
        header, [[render_cell(v) for v in row] for row in rows])


@pytest.mark.parametrize(
    "header, rows, text",
    [
        # RFC 4180 section 2: a field holding a comma, a quote, CR or LF
        # is quoted, and its quotes are doubled.  csv.writer with LF row
        # ends leaves the bare CR unquoted on Python 3.11.
        (["k", "v"], [["a\rb", 1]], 'k,v\n"a\rb",1\n'),
        (["k", "v"], [["a\nb", 1]], 'k,v\n"a\nb",1\n'),
        (["k", "v"], [['say "hi"', "x,y"]], 'k,v\n"say ""hi""","x,y"\n'),
        # Spaces are kept as they are, unquoted.
        (["k", "v"], [[" a ", " "]], "k,v\n a , \n"),
        # A missing cell is an empty field...
        (["k", "v"], [[None, None]], "k,v\n,\n"),
        # ...except alone on a row, where it is "", so the row reads back
        # as one empty cell and not as a blank line.
        (["v"], [[None], [None], ["x"]], 'v\n""\n""\nx\n'),
        ([""], [], '""\n'),
        (["a,b", "c"], [], '"a,b",c\n'),
    ],
)
def test_writer_quotes_by_rfc_4180(header, rows, text):
    buf = io.StringIO()
    write_csv(buf, header, rows)
    assert buf.getvalue() == text
