import io

import pytest

from temporaltable import (
    DuplicateIndexError,
    IngestConfig,
    IngestError,
    SchemaError,
    ingest,
    table_to_csv,
    timepoint as tp,
)
from temporaltable.ingest import render_cell
from conftest import DATA, assert_same_table


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
