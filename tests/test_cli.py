import argparse
import codecs
import contextlib
import csv
import gc
import importlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

import temporaltable
from temporaltable import Granularity, TimePoint, Window, aggregates, build, cli, roll_by_key
from temporaltable.cli import main
from temporaltable.ingest import IngestConfig, ingest, table_to_csv
from conftest import DATA

TB = str(DATA / "tuberculosis.csv")
FLIGHTS = str(DATA / "flights10.csv")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def gappy_csv(tmp_path):
    p = tmp_path / "gappy.csv"
    p.write_text(
        "k,t,v,s\n"
        "A,1,10,x\n"
        "A,2,14,y\n"
        "A,5,12,z\n"
        "A,6,12,x\n"
        "A,9,12,y\n"
    )
    return str(p)


def test_validate_summary(capsys):
    rc, out, err = run(capsys, "validate", TB, "--index", "year",
                       "--key", "country,gender")
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# A tsibble: 12 x 5 [1Y]"
    assert lines[1] == "# Key:       country, gender [6]"


def test_validate_reads_nan_as_a_text_key(capsys, tmp_path):
    # "nan" is no JSON number, so it reads as text: the two rows are one
    # series with one day twice, never two NaN series.
    p = tmp_path / "nan.csv"
    p.write_text("k,t,v\nnan,2020-01-01,1\nnan,2020-01-01,2\n")
    rc, out, err = run(capsys, "validate", str(p), "--index", "t", "--key", "k")
    assert (rc, out) == (1, "")
    assert err.splitlines()[0] == (
        "error: 2 rows share a (key, index) pair; first duplicate: "
        "key=('nan',) index=2020-01-01"
    )


def test_print_matches_validate(capsys):
    rc1, out1, _ = run(capsys, "validate", TB, "--index", "year", "--key", "country,gender")
    rc2, out2, _ = run(capsys, "print", TB, "--index", "year", "--key", "country,gender")
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2


def test_validate_duplicate_rows_fail_with_report(capsys):
    rc, out, err = run(capsys, "validate", FLIGHTS, "--index", "sched_dep_datetime",
                       "--key", "flight_num", "--irregular")
    assert (rc, out) == (1, "")
    # The report rows are written by their columns' kinds: the time columns
    # at second, the delays as ints and the rest as text.
    assert err == (
        "error: 2 rows share a (key, index) pair; first duplicate: "
        "key=('NK630',) index=2017-08-03 17:45:00\n"
        "flight_num,sched_dep_datetime,sched_arr_datetime,dep_delay,arr_delay,carrier,tailnum,"
        "origin,dest,air_time,distance,origin_city_name,origin_state,dest_city_name,dest_state,"
        "taxi_out,taxi_in,carrier_delay,weather_delay,nas_delay,security_delay,late_aircraft_delay\n"
        "NK630,2017-08-03 17:45:00,2017-08-03 21:00:00,140,194,NK,N601NK,LAX,DEN,107,862,"
        "Los Angeles,CA,Denver,CO,69,13,0,0,194,0,0\n"
        "NK630,2017-08-03 17:45:00,2017-08-03 21:00:00,140,194,NK,N639NK,ORD,LGA,107,733,"
        "Chicago,IL,New York,NY,69,13,0,0,194,0,0\n"
    )


def test_validate_after_removing_duplicate(capsys, tmp_path):
    rows = pathlib.Path(FLIGHTS).read_text().splitlines(keepends=True)
    kept = [r for r in rows if "N601NK,LAX" not in r]
    assert len(kept) == len(rows) - 1
    fixed = tmp_path / "fixed.csv"
    fixed.write_text("".join(kept))
    rc, out, err = run(capsys, "validate", str(fixed), "--index", "sched_dep_datetime",
                       "--key", "flight_num", "--irregular")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# A tsibble: 9 x 22 [!] <UTC>"
    assert lines[1] == "# Key:       flight_num [6]"


def test_gaps_has(capsys, gappy_csv):
    rc, out, err = run(capsys, "gaps", "has", gappy_csv, "--index", "t",
                       "--key", "k", "--time-format", "t=ordinal")
    assert rc == 0
    assert out == "k,has_gaps\nA,true\n"


def test_gaps_scan(capsys, gappy_csv):
    rc, out, err = run(capsys, "gaps", "scan", gappy_csv, "--index", "t",
                       "--key", "k", "--time-format", "t=ordinal")
    assert rc == 0
    assert out == "k,t\nA,3\nA,4\nA,7\nA,8\n"


def test_gaps_count(capsys, gappy_csv):
    rc, out, err = run(capsys, "gaps", "count", gappy_csv, "--index", "t",
                       "--key", "k", "--time-format", "t=ordinal")
    assert rc == 0
    assert out == "k,from,to,n\nA,3,4,2\nA,7,8,2\n"


def test_gaps_fill_with_aggregate_and_constant(capsys, gappy_csv):
    rc, out, err = run(capsys, "gaps", "fill", gappy_csv, "--index", "t",
                       "--key", "k", "--time-format", "t=ordinal",
                       "--fill-with", "v=mean", "--fill-with", "s=mean")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,t,v,s"
    assert len(lines) == 10
    # v is numeric, so "mean" is the aggregate (here 12.0); s is text, so
    # "mean" is just a constant.
    assert "A,3,12.0,mean" in lines
    assert "A,8,12.0,mean" in lines


def test_gaps_fill_default_leaves_missing(capsys, gappy_csv):
    rc, out, err = run(capsys, "gaps", "fill", gappy_csv, "--index", "t",
                       "--key", "k", "--time-format", "t=ordinal")
    assert rc == 0
    assert "A,3,,\n" in out


# A constant is read the way a CSV cell is: "1_000" and " 5" are text there.
@pytest.mark.parametrize("fill", ["v=zero", "v=1_000", "v= 5"])
def test_gaps_fill_constant_must_fit_kind(capsys, gappy_csv, fill):
    rc, out, err = run(capsys, "gaps", "fill", gappy_csv, "--index", "t",
                       "--key", "k", "--time-format", "t=ordinal",
                       "--fill-with", fill)
    assert rc == 2
    assert "usage error" in err


def test_gaps_fill_with_a_time_constant(capsys, tmp_path):
    p = tmp_path / "seen.csv"
    p.write_text("t,seen\n1,2020-01-01 10:00\n2,2020-01-01 11:00\n4,2020-01-03 09:30\n")
    argv = ["gaps", "fill", str(p), "--index", "t", "--time-format", "t=ordinal",
            "--time-format", "seen=minute", "--zone", "Asia/Kolkata"]
    rc, out, _ = run(capsys, *argv, "--fill-with", "seen=2020-01-02 12:15")
    assert rc == 0
    assert out.splitlines() == ["t,seen", "1,2020-01-01 10:00", "2,2020-01-01 11:00",
                                "3,2020-01-02 12:15", "4,2020-01-03 09:30"]
    rc, _, err = run(capsys, *argv, "--fill-with", "seen=soon")
    assert rc == 2
    assert err.startswith("usage error: --fill-with seen=soon: neither a time constant")


def test_gaps_fill_unknown_column(capsys, gappy_csv):
    rc, out, err = run(capsys, "gaps", "fill", gappy_csv, "--index", "t",
                       "--key", "k", "--time-format", "t=ordinal",
                       "--fill-with", "w=0")
    assert (rc, out, err) == (1, "", "error: no column named 'w'\n")


def test_a_time_format_naming_no_column_fails_validation(capsys, tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("day,v\n2011-07-05,1\n")
    rc, out, err = run(capsys, "validate", str(p), "--index", "day",
                       "--time-format", "nosuch=day")
    assert (rc, out) == (1, "")
    assert err == f"error: {p}: no column named 'nosuch'\n"


def test_a_key_naming_no_column_fails_validation(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.csv").write_text("day,v\n2011-07-05,1\n")
    rc, out, err = run(capsys, "validate", "k.csv", "--index", "day", "--key", "nosuch")
    assert (rc, out, err) == (1, "", "error: k.csv: no column named 'nosuch'\n")


def test_validate_names_the_file_row_of_an_empty_index_cell(capsys, tmp_path):
    p = tmp_path / "miss.csv"
    p.write_text("day,v\n2011-07-05,1\n,2\n")
    rc, out, err = run(capsys, "validate", str(p), "--index", "day")
    assert (rc, out) == (1, "")
    assert err == "error: index column 'day' has a missing value at row 3\n"


def test_validate_reads_past_a_byte_order_mark(capsys, tmp_path):
    p = tmp_path / "b.csv"
    p.write_bytes("day,v\n2011-07-05,1\n2011-07-06,2\n".encode("utf-8-sig"))
    rc, out, err = run(capsys, "validate", str(p), "--index", "day")
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "# A tsibble: 2 x 2 [1D]"


def test_agg_grouped(capsys):
    rc, out, err = run(capsys, "agg", TB, "--index", "year", "--key", "country,gender",
                       "--by", "year", "--fn", "count=sum", "--group", "country")
    assert rc == 0
    assert out == (
        "country,year,count_sum\n"
        "Australia,2011,296\n"
        "Australia,2012,286\n"
        "New Zealand,2011,83\n"
        "New Zealand,2012,65\n"
        "United States of America,2011,3659\n"
        "United States of America,2012,3538\n"
    )


def test_agg_ungrouped_collapses(capsys):
    rc, out, err = run(capsys, "agg", TB, "--index", "year", "--key", "country,gender",
                       "--by", "year", "--fn", "count=sum")
    assert rc == 0
    assert out == "year,count_sum\n2011,4038\n2012,3889\n"


def test_agg_keeps_every_fn_of_a_column(capsys):
    rc, out, err = run(capsys, "agg", TB, "--index", "year", "--key", "country,gender",
                       "--by", "year", "--fn", "count=sum", "--fn", "count=mean")
    assert (rc, err) == (0, "")
    assert out == "year,count_sum,count_mean\n2011,4038,673.0\n2012,3889,648.1666666666666\n"


@pytest.mark.parametrize("flag, first, second", [
    ("--fill-with", "v=0", "v=mean"),
    ("--time-format", "t=ordinal", "t=guess"),
])
def test_a_column_given_twice_to_a_per_column_flag_is_a_usage_error(
        capsys, gappy_csv, flag, first, second):
    rc, out, err = run(capsys, "gaps", "fill", gappy_csv, "--index", "t", "--key", "k",
                       flag, first, flag, second)
    assert (rc, out) == (2, "")
    assert err == f"usage error: {flag} names column {first.partition('=')[0]!r} more than once\n"


def test_agg_quantile_column_name(capsys):
    rc, out, err = run(capsys, "agg", TB, "--index", "year", "--key", "country,gender",
                       "--by", "year", "--fn", "count=quantile:0.5")
    assert rc == 0
    assert out.splitlines()[0] == "year,count_quantile_0.5"


AGG_BY_HOUR = ("agg", FLIGHTS, "--index", "sched_dep_datetime", "--key", "flight_num,origin",
               "--irregular", "--time-format", "sched_arr_datetime=second", "--by", "hour",
               "--group", "origin", "--fn", "dep_delay=mean")


def test_agg_by_hour_writes_each_hour_from_its_ticks(capsys):
    # The CI smoke step runs this command: an hour index written from its
    # ticks by the unzoned writer, on every Python in the matrix.
    rc, out, err = run(capsys, *AGG_BY_HOUR)
    assert (rc, err) == (0, "")
    assert out == (
        "origin,hour,dep_delay_mean\n"
        "ATL,2017-08-03 07:00,3.0\n"
        "ATL,2017-08-04 07:00,118.0\n"
        "BOS,2017-08-03 13:00,57.0\n"
        "DAL,2017-08-03 09:00,-1.0\n"
        "JFK,2017-08-03 06:00,-4.0\n"
        "JFK,2017-08-04 06:00,0.0\n"
        "LAX,2017-08-03 17:00,140.0\n"
        "ORD,2017-08-03 08:00,22.0\n"
        "ORD,2017-08-03 17:00,140.0\n"
        "ORD,2017-08-04 17:00,-2.0\n"
    )


def test_full_fill_of_the_hourly_agg_puts_six_origins_on_one_grid(capsys, tmp_path):
    # The CI smoke step runs this command after the agg above: each new hour
    # is one index cell shared by the origins that miss it, written from its
    # ticks, on every Python in the matrix.
    rc, out, err = run(capsys, *AGG_BY_HOUR)
    assert (rc, err) == (0, "")
    agg = tmp_path / "agg-hour.csv"
    agg.write_text(out)
    rc, out, err = run(capsys, "gaps", "fill", str(agg), "--index", "hour", "--key", "origin",
                       "--time-format", "hour=hour", "--full")
    assert (rc, err) == (0, "")
    assert out == (
        "origin,hour,dep_delay_mean\n"
        "ATL,2017-08-03 07:00,3.0\n"
        "ATL,2017-08-03 10:00,\n"
        "ATL,2017-08-03 13:00,\n"
        "ATL,2017-08-03 16:00,\n"
        "ATL,2017-08-03 19:00,\n"
        "ATL,2017-08-03 22:00,\n"
        "ATL,2017-08-04 01:00,\n"
        "ATL,2017-08-04 04:00,\n"
        "ATL,2017-08-04 07:00,118.0\n"
        "ATL,2017-08-04 10:00,\n"
        "ATL,2017-08-04 13:00,\n"
        "ATL,2017-08-04 16:00,\n"
        "BOS,2017-08-03 07:00,\n"
        "BOS,2017-08-03 10:00,\n"
        "BOS,2017-08-03 13:00,57.0\n"
        "BOS,2017-08-03 16:00,\n"
        "BOS,2017-08-03 19:00,\n"
        "BOS,2017-08-03 22:00,\n"
        "BOS,2017-08-04 01:00,\n"
        "BOS,2017-08-04 04:00,\n"
        "BOS,2017-08-04 07:00,\n"
        "BOS,2017-08-04 10:00,\n"
        "BOS,2017-08-04 13:00,\n"
        "BOS,2017-08-04 16:00,\n"
        "DAL,2017-08-03 06:00,\n"
        "DAL,2017-08-03 09:00,-1.0\n"
        "DAL,2017-08-03 12:00,\n"
        "DAL,2017-08-03 15:00,\n"
        "DAL,2017-08-03 18:00,\n"
        "DAL,2017-08-03 21:00,\n"
        "DAL,2017-08-04 00:00,\n"
        "DAL,2017-08-04 03:00,\n"
        "DAL,2017-08-04 06:00,\n"
        "DAL,2017-08-04 09:00,\n"
        "DAL,2017-08-04 12:00,\n"
        "DAL,2017-08-04 15:00,\n"
        "JFK,2017-08-03 06:00,-4.0\n"
        "JFK,2017-08-03 09:00,\n"
        "JFK,2017-08-03 12:00,\n"
        "JFK,2017-08-03 15:00,\n"
        "JFK,2017-08-03 18:00,\n"
        "JFK,2017-08-03 21:00,\n"
        "JFK,2017-08-04 00:00,\n"
        "JFK,2017-08-04 03:00,\n"
        "JFK,2017-08-04 06:00,0.0\n"
        "JFK,2017-08-04 09:00,\n"
        "JFK,2017-08-04 12:00,\n"
        "JFK,2017-08-04 15:00,\n"
        "LAX,2017-08-03 08:00,\n"
        "LAX,2017-08-03 11:00,\n"
        "LAX,2017-08-03 14:00,\n"
        "LAX,2017-08-03 17:00,140.0\n"
        "LAX,2017-08-03 20:00,\n"
        "LAX,2017-08-03 23:00,\n"
        "LAX,2017-08-04 02:00,\n"
        "LAX,2017-08-04 05:00,\n"
        "LAX,2017-08-04 08:00,\n"
        "LAX,2017-08-04 11:00,\n"
        "LAX,2017-08-04 14:00,\n"
        "LAX,2017-08-04 17:00,\n"
        "ORD,2017-08-03 08:00,22.0\n"
        "ORD,2017-08-03 11:00,\n"
        "ORD,2017-08-03 14:00,\n"
        "ORD,2017-08-03 17:00,140.0\n"
        "ORD,2017-08-03 20:00,\n"
        "ORD,2017-08-03 23:00,\n"
        "ORD,2017-08-04 02:00,\n"
        "ORD,2017-08-04 05:00,\n"
        "ORD,2017-08-04 08:00,\n"
        "ORD,2017-08-04 11:00,\n"
        "ORD,2017-08-04 14:00,\n"
        "ORD,2017-08-04 17:00,-2.0\n"
    )


def test_gaps_count_of_the_hourly_agg_goes_through_the_report_writer(capsys, tmp_path):
    # The CI smoke step runs this command too: its report is written by
    # ingest.write_csv, as is the duplicate report, which the step also runs.
    rc, out, err = run(capsys, *AGG_BY_HOUR)
    agg = tmp_path / "agg-hour.csv"
    agg.write_text(out)
    rc, out, err = run(capsys, "gaps", "count", str(agg), "--index", "hour", "--key", "origin",
                       "--time-format", "hour=hour", "--full")
    assert (rc, err) == (0, "")
    assert out == (
        "origin,from,to,n\n"
        "ATL,2017-08-03 10:00,2017-08-04 04:00,7\n"
        "ATL,2017-08-04 10:00,2017-08-04 16:00,3\n"
        "BOS,2017-08-03 07:00,2017-08-03 10:00,2\n"
        "BOS,2017-08-03 16:00,2017-08-04 16:00,9\n"
        "DAL,2017-08-03 06:00,2017-08-03 06:00,1\n"
        "DAL,2017-08-03 12:00,2017-08-04 15:00,10\n"
        "JFK,2017-08-03 09:00,2017-08-04 03:00,7\n"
        "JFK,2017-08-04 09:00,2017-08-04 15:00,3\n"
        "LAX,2017-08-03 08:00,2017-08-03 14:00,3\n"
        "LAX,2017-08-03 20:00,2017-08-04 17:00,8\n"
        "ORD,2017-08-03 11:00,2017-08-03 14:00,2\n"
        "ORD,2017-08-03 20:00,2017-08-04 14:00,7\n"
    )


ROLL_HOURLY = ("--index", "hour", "--key", "origin", "--time-format", "hour=hour",
               "--op", "slide", "--col", "dep_delay_mean", "--fn", "mean", "--size", "3")


def test_roll_of_the_filled_hourly_agg(capsys, tmp_path):
    # The CI smoke step rolls the full panel that gaps fill makes of the
    # hourly agg, on every Python in the matrix; the unfilled agg is
    # refused for its gaps.
    rc, out, err = run(capsys, *AGG_BY_HOUR)
    agg = tmp_path / "agg-hour.csv"
    agg.write_text(out)
    rc, out, err = run(capsys, "gaps", "fill", str(agg), "--index", "hour", "--key", "origin",
                       "--time-format", "hour=hour", "--full")
    filled = tmp_path / "filled-hour.csv"
    filled.write_text(out)
    rc, out, err = run(capsys, "roll", str(filled), *ROLL_HOURLY)
    assert (rc, err) == (0, "")
    assert out == (
        "origin,hour,dep_delay_mean,dep_delay_mean_slide\n"
        "ATL,2017-08-03 07:00,3.0,\n"
        "ATL,2017-08-03 10:00,,\n"
        "ATL,2017-08-03 13:00,,3.0\n"
        "ATL,2017-08-03 16:00,,\n"
        "ATL,2017-08-03 19:00,,\n"
        "ATL,2017-08-03 22:00,,\n"
        "ATL,2017-08-04 01:00,,\n"
        "ATL,2017-08-04 04:00,,\n"
        "ATL,2017-08-04 07:00,118.0,118.0\n"
        "ATL,2017-08-04 10:00,,118.0\n"
        "ATL,2017-08-04 13:00,,118.0\n"
        "ATL,2017-08-04 16:00,,\n"
        "BOS,2017-08-03 07:00,,\n"
        "BOS,2017-08-03 10:00,,\n"
        "BOS,2017-08-03 13:00,57.0,57.0\n"
        "BOS,2017-08-03 16:00,,57.0\n"
        "BOS,2017-08-03 19:00,,57.0\n"
        "BOS,2017-08-03 22:00,,\n"
        "BOS,2017-08-04 01:00,,\n"
        "BOS,2017-08-04 04:00,,\n"
        "BOS,2017-08-04 07:00,,\n"
        "BOS,2017-08-04 10:00,,\n"
        "BOS,2017-08-04 13:00,,\n"
        "BOS,2017-08-04 16:00,,\n"
        "DAL,2017-08-03 06:00,,\n"
        "DAL,2017-08-03 09:00,-1.0,\n"
        "DAL,2017-08-03 12:00,,-1.0\n"
        "DAL,2017-08-03 15:00,,-1.0\n"
        "DAL,2017-08-03 18:00,,\n"
        "DAL,2017-08-03 21:00,,\n"
        "DAL,2017-08-04 00:00,,\n"
        "DAL,2017-08-04 03:00,,\n"
        "DAL,2017-08-04 06:00,,\n"
        "DAL,2017-08-04 09:00,,\n"
        "DAL,2017-08-04 12:00,,\n"
        "DAL,2017-08-04 15:00,,\n"
        "JFK,2017-08-03 06:00,-4.0,\n"
        "JFK,2017-08-03 09:00,,\n"
        "JFK,2017-08-03 12:00,,-4.0\n"
        "JFK,2017-08-03 15:00,,\n"
        "JFK,2017-08-03 18:00,,\n"
        "JFK,2017-08-03 21:00,,\n"
        "JFK,2017-08-04 00:00,,\n"
        "JFK,2017-08-04 03:00,,\n"
        "JFK,2017-08-04 06:00,0.0,0.0\n"
        "JFK,2017-08-04 09:00,,0.0\n"
        "JFK,2017-08-04 12:00,,0.0\n"
        "JFK,2017-08-04 15:00,,\n"
        "LAX,2017-08-03 08:00,,\n"
        "LAX,2017-08-03 11:00,,\n"
        "LAX,2017-08-03 14:00,,\n"
        "LAX,2017-08-03 17:00,140.0,140.0\n"
        "LAX,2017-08-03 20:00,,140.0\n"
        "LAX,2017-08-03 23:00,,140.0\n"
        "LAX,2017-08-04 02:00,,\n"
        "LAX,2017-08-04 05:00,,\n"
        "LAX,2017-08-04 08:00,,\n"
        "LAX,2017-08-04 11:00,,\n"
        "LAX,2017-08-04 14:00,,\n"
        "LAX,2017-08-04 17:00,,\n"
        "ORD,2017-08-03 08:00,22.0,\n"
        "ORD,2017-08-03 11:00,,\n"
        "ORD,2017-08-03 14:00,,22.0\n"
        "ORD,2017-08-03 17:00,140.0,140.0\n"
        "ORD,2017-08-03 20:00,,140.0\n"
        "ORD,2017-08-03 23:00,,140.0\n"
        "ORD,2017-08-04 02:00,,\n"
        "ORD,2017-08-04 05:00,,\n"
        "ORD,2017-08-04 08:00,,\n"
        "ORD,2017-08-04 11:00,,\n"
        "ORD,2017-08-04 14:00,,\n"
        "ORD,2017-08-04 17:00,-2.0,-2.0\n"
    )
    rc, out, err = run(capsys, "roll", str(agg), *ROLL_HOURLY)
    assert (rc, out) == (1, "")
    assert err.startswith("error: 3 key(s) have implicit gaps (first: key ('ATL',) misses ")


def test_a_point_past_year_9999_fails_output(capsys, monkeypatch, gappy_csv):
    # No text ttab reads parses past year 9999, so the table is handed in.
    cli_module = importlib.import_module("temporaltable.cli")
    far = build({"d": [TimePoint(k, Granularity.DAY) for k in (3_000_000, 3_000_001)],
                 "v": [1, 2]}, "d")
    monkeypatch.setattr(cli_module, "ingest", lambda cfg: far)
    rc, out, err = run(capsys, "gaps", "fill", gappy_csv, "--index", "d")
    assert (rc, out) == (1, "")
    assert err == ("error: column 'd' holds a time point at row 0 (day tick 3000000) "
                   "that cannot be written: year 10183 is out of range\n")


def test_agg_usage_errors(capsys):
    rc, _, err = run(capsys, "agg", TB, "--index", "year", "--by", "fortnight",
                     "--fn", "count=sum")
    assert rc == 2
    rc, _, _ = run(capsys, "agg", TB, "--index", "year", "--by", "year")
    assert rc == 2
    rc, _, _ = run(capsys, "agg", TB, "--index", "year", "--by", "year",
                   "--fn", "count=median")
    assert rc == 2
    rc, _, _ = run(capsys, "agg", TB, "--index", "year", "--by", "year",
                   "--fn", "count=quantile:2")
    assert rc == 2
    rc, out, err = run(capsys, "agg", TB, "--index", "year", "--by", "year",
                       "--fn", "count=sum:")
    assert (rc, out) == (2, "")
    assert err.startswith("usage error: unknown aggregate 'sum:'")


def test_roll_slide_mean(capsys):
    rc, out, err = run(capsys, "roll", TB, "--index", "year", "--key", "country,gender",
                       "--op", "slide", "--col", "count", "--fn", "mean", "--size", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "country,continent,gender,year,count,count_slide"
    assert lines[1] == "Australia,Oceania,Female,2011,120,"
    assert lines[2] == "Australia,Oceania,Female,2012,125,122.5"


def test_roll_stretch_accepts_init(capsys):
    rc, out, err = run(capsys, "roll", TB, "--index", "year", "--key", "country,gender",
                       "--op", "stretch", "--col", "count", "--fn", "sum", "--init", "1")
    assert rc == 0
    assert out.splitlines()[2].endswith(",245")


def test_roll_float_sum_is_correctly_rounded(capsys, tmp_path):
    p = tmp_path / "cancel.csv"
    p.write_text("t,v\n1,1e16\n2,1.0\n3,-1e16\n")
    rc, out, err = run(capsys, "roll", str(p), "--index", "t", "--time-format", "t=ordinal",
                       "--op", "slide", "--col", "v", "--fn", "sum", "--size", "3")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "3,-1e+16,1.0"


@pytest.mark.parametrize("command", [
    ["roll", "--op", "slide", "--col", "v", "--fn", "sum", "--size", "2"],
    ["agg", "--by", "year", "--fn", "v=sum"],
])
def test_an_overflowing_real_is_a_schema_error(capsys, tmp_path, command):
    # 1e308 + 1e308 is inf, which no CSV number can hold: ttab writes
    # nothing and reports the column and row as it does other schema errors.
    p = tmp_path / "big.csv"
    p.write_text("t,v\n2021-01-01,1e308\n2021-01-02,1e308\n2021-01-03,1.0\n")
    rc, out, err = run(capsys, command[0], str(p), "--index", "t", *command[1:])
    assert (rc, out) == (1, "")
    assert err.startswith("error: real column 'v")
    assert "holds inf at row" in err and err.endswith("CSV numbers must be finite\n")


@pytest.mark.parametrize("spec", ["quantile:0.5", "max"])
def test_roll_named_aggregate_matches_apply(capsys, spec):
    rc, out, err = run(capsys, "roll", TB, "--index", "year", "--key", "country,gender",
                       "--op", "slide", "--col", "count", "--fn", spec, "--size", "2",
                       "--partial")
    assert (rc, err) == (0, "")
    t = ingest(IngestConfig(TB, "year", ("country", "gender")))
    want = roll_by_key(t, "count", "slide", lambda w: aggregates.apply(spec, w),
                       Window(2, partial=True))
    assert out == table_to_csv(want)


def test_roll_gappy_input_fails(capsys, gappy_csv):
    rc, out, err = run(capsys, "roll", gappy_csv, "--index", "t", "--key", "k",
                       "--time-format", "t=ordinal",
                       "--op", "slide", "--col", "v", "--fn", "mean", "--size", "2")
    assert rc == 1
    assert "fill_gaps" in err


def test_roll_usage_errors(capsys):
    base = ["roll", TB, "--index", "year", "--key", "country,gender",
            "--col", "count", "--fn", "mean"]
    rc, _, _ = run(capsys, *base, "--op", "slide")
    assert rc == 2
    rc, _, _ = run(capsys, *base, "--op", "stretch")
    assert rc == 2
    rc, _, _ = run(capsys, *base, "--op", "slide", "--size", "0")
    assert rc == 2
    rc, _, _ = run(capsys, *base, "--op", "slide", "--size", "2", "--step", "0")
    assert rc == 2
    rc, _, _ = run(capsys, *base[:-2], "--op", "slide", "--fn", "median", "--size", "2")
    assert rc == 2
    rc, out, err = run(capsys, *base[:-2], "--op", "slide", "--fn", "mean:", "--size", "2")
    assert (rc, out) == (2, "")
    assert err.startswith("usage error: unknown aggregate 'mean:'")
    # Window parts the op would ignore are refused before the CSV is read.
    missing = ["roll", "no-such.csv", *base[2:]]
    rc, out, err = run(capsys, *missing, "--op", "tile", "--size", "2", "--step", "3")
    assert (rc, out) == (2, "")
    assert err == "usage error: tile takes no step (its blocks follow each other), got 3\n"
    for op, size in (("tile", "--size"), ("stretch", "--init")):
        rc, out, err = run(capsys, *missing, "--op", op, size, "2", "--partial")
        assert (rc, out) == (2, "")
        assert err == f"usage error: {op} has no partial windows\n"
    # So is a bad aggregate spec.
    rc, out, err = run(capsys, *missing[:-1], "median", "--op", "slide", "--size", "2")
    assert (rc, out) == (2, "")
    assert err.startswith("usage error: unknown aggregate 'median'")
    # Each window flag has one meaning: --init is stretch's, --size the others'.
    for op in ("slide", "tile"):
        rc, out, err = run(capsys, *missing, "--op", op, "--size", "2", "--init", "3")
        assert (rc, out, err) == (2, "", f"usage error: {op} takes --size, not --init\n")
    for flags in (["--size", "2"], ["--size", "2", "--init", "3"]):
        rc, out, err = run(capsys, *missing, "--op", "stretch", *flags)
        assert (rc, out, err) == (2, "", "usage error: stretch takes --init, not --size\n")


def test_bad_time_format_flag(capsys):
    rc, _, err = run(capsys, "validate", TB, "--index", "year",
                     "--time-format", "year=fortnight")
    assert rc == 2
    rc, _, _ = run(capsys, "validate", TB, "--index", "year", "--time-format", "year")
    assert rc == 2


def test_index_in_key_rejected(capsys):
    rc, _, err = run(capsys, "validate", TB, "--index", "year", "--key", "year,country")
    assert rc == 2


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_delimiter_must_be_one_character(capsys, delimiter):
    # Refused before the file is opened: the path does not exist.
    rc, out, err = run(capsys, "validate", "no-such.csv", "--index", "t",
                       "--delimiter", delimiter)
    assert (rc, out) == (2, "")
    assert err == f"usage error: --delimiter must be one character, got {delimiter!r}\n"


@pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
def test_delimiter_cannot_be_a_quote_cr_or_lf(capsys, tmp_path, delimiter):
    # Refused on every Python: 3.13's csv module raises ValueError for
    # these, where 3.11 read such a file as one column.
    p = tmp_path / "q.csv"
    p.write_text('a"b\n1"2\n')
    rc, out, err = run(capsys, "validate", str(p), "--index", "a", "--delimiter", delimiter)
    assert (rc, out) == (2, "")
    assert err == f"usage error: --delimiter cannot be a quote, CR or LF, got {delimiter!r}\n"


@pytest.mark.parametrize("time_format", [[], ["--time-format", "v=ordinal"]])
def test_an_int_longer_than_the_interpreter_reads_fails_validation(capsys, tmp_path, time_format):
    digits = sys.get_int_max_str_digits() + 1
    p = tmp_path / "long.csv"
    p.write_text(f"t,v\n1,7\n2,{'1' * digits}\n")
    rc, out, err = run(capsys, "validate", str(p), "--index", "t",
                       "--time-format", "t=ordinal", *time_format)
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: row 3, column 'v': a {digits}-digit int is longer than")


def test_missing_file_is_io_error(capsys):
    rc, _, err = run(capsys, "validate", "/nonexistent/nope.csv", "--index", "t")
    assert rc == 3
    assert "i/o error" in err


def test_unparsable_data_fails_validation(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,v\n2011,1\nnever,2\n")
    rc, _, err = run(capsys, "validate", str(p), "--index", "t")
    assert rc == 1
    assert "row 3" in err


def test_argparse_level_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["validate", TB])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", TB, "--index", "t"])
    assert info.value.code == 2


def test_gaps_irregular_table_fails(capsys, gappy_csv):
    rc, _, err = run(capsys, "gaps", "scan", gappy_csv, "--index", "t", "--key", "k",
                     "--time-format", "t=ordinal", "--irregular")
    assert rc == 1
    assert "regular" in err


def test_a_key_holding_a_carriage_return_round_trips(capsys, tmp_path):
    # A field holding a bare CR is quoted (RFC 4180), so the file that
    # gaps fill writes reads back with every row whole.
    p = tmp_path / "in.csv"
    p.write_bytes(b'k,t,v\n"a\rb",1,1\n"a\rb",2,2\nc,1,3\n')
    rc, out, err = run(capsys, "gaps", "fill", str(p), "--index", "t", "--key", "k")
    assert (rc, err) == (0, "")
    assert out == 'k,t,v\n"a\rb",1,1\n"a\rb",2,2\nc,1,3\n'
    filled = tmp_path / "out.csv"
    filled.write_bytes(out.encode())
    rc, out, err = run(capsys, "validate", str(filled), "--index", "t", "--key", "k")
    assert (rc, err) == (0, "")
    assert out.splitlines()[1] == "# Key:       k [2]"


def test_zoned_hours_round_trip_across_a_dst_fall_back(capsys, tmp_path):
    # Melbourne fell back at 03:00 on 2021-04-04, so 02:00 came twice; the
    # file names each instant by its UTC offset and validates.
    zone = "Australia/Melbourne"
    t = temporaltable.build(
        {"t": [TimePoint(k, temporaltable.Granularity.HOUR, zone) for k in range(449294, 449298)],
         "v": [1, 2, 3, 4]}, "t")
    p = tmp_path / "dst.csv"
    p.write_text(table_to_csv(t))
    assert p.read_text() == (
        "t,v\n2021-04-04 01:00,1\n2021-04-04 02:00+11:00,2\n"
        "2021-04-04 02:00+10:00,3\n2021-04-04 03:00,4\n"
    )
    rc, out, err = run(capsys, "validate", str(p), "--index", "t", "--time-format", "t=hour",
                       "--zone", zone)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "# A tsibble: 4 x 2 [1h] <Australia/Melbourne>"


def test_local_mean_time_minutes_need_their_granularity_declared(capsys, tmp_path):
    # Melbourne's offset was +09:39:52 in 1883, so each minute is written
    # with local seconds :52.  Its text is that of a second, and a guess
    # from the cells reads seconds; declaring the minute reads it back.
    zone = "Australia/Melbourne"
    t = temporaltable.build(
        {"t": [TimePoint(k, temporaltable.Granularity.MINUTE, zone)
               for k in (-45757440, -45757439, -45757437)],
         "v": [1, 2, 3]}, "t")
    p = tmp_path / "lmt.csv"
    p.write_text(table_to_csv(t))
    assert p.read_text().splitlines()[1] == "1883-01-01 09:39:52,1"
    args = ("validate", str(p), "--index", "t", "--zone", zone)
    rc, out, err = run(capsys, *args)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "# A tsibble: 3 x 2 [60s] <Australia/Melbourne>"
    rc, out, err = run(capsys, *args, "--time-format", "t=minute")
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "# A tsibble: 3 x 2 [1m] <Australia/Melbourne>"
    assert ingest(IngestConfig(str(p), index="t", zone=zone, time_format={"t": "minute"})) == t


def test_each_distinct_day_is_parsed_once_and_each_tick_rendered_once(
        capsys, tmp_path, monkeypatch):
    # The benchmark counts parse_timepoint at this attribute.  Ingest reads
    # an unzoned time column through it once per distinct day: a day column
    # once per distinct cell, a sub-daily column once per distinct date.  An
    # unzoned index is written from its ticks by timepoint._day_texts, once
    # per distinct day with that day's ticks.  (The package's ``ingest``
    # attribute is the function, not the module.)
    ingest_module = importlib.import_module("temporaltable.ingest")
    timepoint_module = importlib.import_module("temporaltable.timepoint")

    calls = {"parse": [], "days": [], "render": []}
    parse, day_texts = ingest_module.parse_timepoint, timepoint_module._day_texts

    def counted_parse(text, *args):
        calls["parse"].append(text)
        return parse(text, *args)

    def counted_day_texts(days, ticks, g):
        calls["days"].append(days)
        calls["render"].extend(ticks)
        return day_texts(days, ticks, g)

    monkeypatch.setattr(ingest_module, "parse_timepoint", counted_parse)
    monkeypatch.setattr(timepoint_module, "_day_texts", counted_day_texts)
    days = ["2020-01-01", "2020-01-02", "2020-01-04"]
    p = tmp_path / "daily.csv"
    p.write_text("city,day,riders\n" + "".join(
        f"{city},{day},{n}\n" for n, city in enumerate("ABCDE") for day in days))
    rc, out, err = run(capsys, "gaps", "fill", str(p), "--index", "day", "--key", "city",
                       "--fill-with", "riders=0")
    assert (rc, err) == (0, "")
    assert out.count("\n") == 1 + 5 * 4
    assert sorted(calls["parse"]) == days
    assert calls["days"] == calls["render"] == [18262, 18263, 18264, 18265]

    # Hourly text, declared, is parsed once per distinct date, the three
    # hours of 2020-01-01 through one parse of that day; the filled hour is
    # rendered once too, and the four hours of one day share one date text.
    for seen in calls.values():
        seen.clear()
    hours = ["2020-01-01 00:00", "2020-01-01 01:00", "2020-01-01 03:00"]
    p = tmp_path / "hourly.csv"
    p.write_text("sensor,ts,load\n" + "".join(
        f"{sensor},{ts},{n}.5\n" for n, sensor in enumerate("ABC") for ts in hours))
    rc, out, err = run(capsys, "gaps", "fill", str(p), "--index", "ts", "--key", "sensor",
                       "--time-format", "ts=hour", "--fill-with", "load=0")
    assert (rc, err) == (0, "")
    assert out.count("\n") == 1 + 3 * 4
    assert "A,2020-01-01 02:00,0.0\n" in out
    assert calls["parse"] == ["2020-01-01"]
    first = 18262 * 24  # 2020-01-01 00:00 UTC
    assert calls["days"] == [18262]
    assert calls["render"] == [first, first + 1, first + 2, first + 3]

    # Minutes over two days, guessed: two day parses for six distinct cells.
    for seen in calls.values():
        seen.clear()
    minutes = [f"2020-01-0{d} 23:5{m}" for d in (1, 2) for m in (7, 8, 9)]
    p = tmp_path / "minutes.csv"
    p.write_text("ts,load\n" + "".join(f"{ts},{n}\n" for n, ts in enumerate(minutes)))
    rc, out, err = run(capsys, "validate", str(p), "--index", "ts")
    assert (rc, err) == (0, "")
    assert sorted(calls["parse"]) == ["2020-01-01", "2020-01-02"]


def test_cli_import_defers_slow_stdlib_modules():
    # Each is imported on first use (a thread pool, a non-UTC zone), so a
    # ttab command that needs none of them never pays for it.  A mean is
    # math.fsum over the count, so statistics is never loaded, even once a
    # mean has run.  The package's classes are plain slotted classes, so
    # dataclasses and the inspect module it pulls in are never loaded, nor
    # typing: it is checked under -S too, as a site-packages .pth file may
    # import typing itself.
    deferred = ("concurrent.futures", "statistics", "zoneinfo", "dataclasses", "inspect")
    src = str(pathlib.Path(temporaltable.__file__).parents[1])
    for flags, absent in ((["-I"], deferred), (["-I", "-S"], (*deferred, "typing"))):
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import temporaltable.cli; "
            "assert temporaltable.aggregates.apply('mean', [1, 2.5]) == 1.75; "
            f"print(*[m for m in {absent!r} if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout.split() == [], flags


@pytest.mark.parametrize("data, line", [
    (b"day,v\n2011-07-05,1\n2011-07-06,\xff\xfe\n", 3),
    (b"\xef\xbb\xbfday,v\n2011-07-05,\xff\n", 2),  # past a byte-order mark
    (b"day,v\r\n2011-07-05,1\r\n\xe9t\xe9,2\r\n", 3),
    (b"d\xffay,v\n", 1),
])
def test_bytes_that_are_not_utf8_fail_validation_naming_their_line(capsys, tmp_path, data, line):
    p = tmp_path / "latin1.csv"
    p.write_bytes(data)
    rc, out, err = run(capsys, "validate", str(p), "--index", "day")
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {p}: line {line} is not UTF-8 text (b'\\x")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("quoted", [False, True])
def test_a_field_past_the_csv_field_limit_fails_validation_naming_its_row(
        capsys, tmp_path, quoted):
    limit = csv.field_size_limit()
    p = tmp_path / "long.csv"
    q = '"' if quoted else ""
    p.write_text(f"day,v\n2011-07-05,1\n2011-07-06,{q}{'x' * (limit + 1)}{q}\n")
    rc, out, err = run(capsys, "validate", str(p), "--index", "day")
    assert (rc, out) == (1, "")
    assert err == f"error: {p}: row 3: field larger than field limit ({limit})\n"
    assert csv.field_size_limit() == limit  # the limit is not lifted
    # A field of exactly the limit is read.
    p.write_text(f"day,v\n2011-07-05,1\n2011-07-06,{q}{'x' * limit}{q}\n")
    rc, out, err = run(capsys, "validate", str(p), "--index", "day")
    assert (rc, err) == (0, "")


def test_main_leaves_the_cyclic_collector_as_it_found_it(capsys):
    before = (gc.isenabled(), gc.get_freeze_count())
    rc, _, _ = run(capsys, "roll", TB, "--index", "year", "--key", "country,gender",
                   "--op", "slide", "--col", "count", "--fn", "mean", "--size", "2")
    assert rc == 0
    rc, _, _ = run(capsys, "validate", "/nonexistent/nope.csv", "--index", "t")
    assert rc == 3
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv, code", [
    (("validate", TB, "--index", "year", "--key", "country,gender"), 0),
    (("agg", TB, "--index", "year", "--key", "country,gender", "--by", "year",
      "--fn", "count=sum", "--group", "country"), 0),
    (("roll", TB, "--index", "year", "--key", "country,gender", "--op", "slide",
      "--col", "count", "--fn", "mean", "--size", "2"), 0),
    (("validate", FLIGHTS, "--index", "sched_dep_datetime", "--key", "flight_num",
      "--irregular"), 1),
    (("agg", TB, "--index", "year", "--by", "year"), 2),
    (("validate", TB), 2),  # argparse's own usage error
    (("validate", "/nonexistent/nope.csv", "--index", "t"), 3),
])
def test_python_m_temporaltable_writes_what_main_writes(capsys, argv, code):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    src = str(pathlib.Path(temporaltable.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "temporaltable", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert rc == done.returncode == code
    assert done.stdout == captured.out.encode()
    assert done.stderr == captured.err.encode()


def test_the_process_entry_turns_the_collector_off_and_freezes_the_heap():
    src = str(pathlib.Path(temporaltable.__file__).parents[1])
    code = (
        f"import gc, sys; sys.path.insert(0, {src!r}); from temporaltable.cli import process_main; "
        f"sys.argv = ['ttab', 'validate', {TB!r}, '--index', 'year', '--key', 'country,gender']; "
        "rc = process_main(); print(rc, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stderr == "0 False True\n"
    assert done.stdout.startswith("# A tsibble: 12 x 5 [1Y]\n")


# --- the exit-code contract, as a property ------------------------------------

def _mostly(common, rare):
    """``common`` nine times in ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 9 else common)


# The cells of each column a small CSV is drawn from, and noise that CSV
# and UTF-8 decoding treat specially.
_FUZZ_CELLS = {
    "t": ["2020-01-01", "2020-01-02", "2020-01-04", "2020-01-01 10:00", "2020 Q1", "1", "2"],
    "k": ["a", "b", ""],
    "v": ["1", "2", "-3", "1.5", "", "1e999"],
    "w": ["x", "y", "true", "nan", "", " "],
}
_FUZZ_NOISE = st.text(st.sampled_from(['a', '"', ",", ";", "\r", "\n", "\0", "\ufeff", "\t"]),
                      max_size=3)
_FUZZ_BYTES = st.sampled_from([b"\xff", b"\xc3", codecs.BOM_UTF8, b"\0", b'"', b"\r", b"\n",
                               b"x" * (csv.field_size_limit() + 1)])
# Flag values by the flag's destination: what the commands take.
_FUZZ_VALUES = {
    "index": list(_FUZZ_CELLS), "col": list(_FUZZ_CELLS), "key": ["k", "w", "k,w", "t", ","],
    "group": ["k", "w", "k,w"], "zone": ["UTC", "Australia/Melbourne", "No/Such_Zone"],
    "time_format": ["t=day", "t=hour", "t=guess", "t=ordinal", "t=quarter", "v=second", "t"],
    "delimiter": [",", ";", "\t", '"'], "by": ["hour", "day", "month", "year", "week"],
    "fn": ["v=mean", "w=sum", "v=quantile:0.5", "mean", "sum", "count", "v=nope"],
    "fill_with": ["v=0", "w=sum", "w=x", "t=2020-01-01", "v=mean"],
    "size": ["1", "2", "0", "-1"], "step": ["1", "2", "0"], "init": ["1", "2", "0"],
}


@st.composite
def _fuzz_csv(draw) -> bytes:
    """A small CSV: a header and rows of drawn cells, mostly valid for
    their column, then a few raw bytes (not UTF-8, a BOM, NUL, a quote,
    CR, LF, a field past the limit) put anywhere in it."""
    header = draw(_mostly(st.permutations(list(_FUZZ_CELLS)), st.lists(
        st.sampled_from(list(_FUZZ_CELLS)), min_size=1, max_size=4, unique=True)))
    row = st.tuples(*(_mostly(st.sampled_from(_FUZZ_CELLS[c]), _FUZZ_NOISE) for c in header))
    rows = draw(st.lists(row, max_size=8))
    data = ("\n".join(map(",".join, [header, *rows])) + draw(st.sampled_from(["\n", "", "\r\n"])))
    data = data.encode()
    for piece in draw(_mostly(st.just(()), st.lists(_FUZZ_BYTES, min_size=1, max_size=2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + piece + data[at:]
    return data


@st.composite
def _fuzz_argv(draw, paths) -> list[str]:
    """A command line drawn from the parser itself: a command, its
    positionals (the CSV path among ``paths``), then its required flags
    nearly always and any other flag now and then, with a value drawn for
    each flag that takes one."""
    (commands,) = [a.choices for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in commands[name]._actions:
        if action.dest == "help":
            continue
        if action.option_strings:
            if draw(st.integers(0, 9)) >= (9 if action.required else 5):
                continue
            argv.append(draw(st.sampled_from(action.option_strings)))
        if action.dest == "csv":
            argv.append(draw(st.sampled_from(paths)))
        elif action.nargs != 0:
            values = list(action.choices or _FUZZ_VALUES[action.dest])
            argv.append(draw(_mostly(st.sampled_from(values), st.text(max_size=3))))
    return argv


@settings(max_examples=400, deadline=None)
@given(data=_fuzz_csv(), args=st.data())
def test_every_input_gets_an_exit_code_and_an_error_line(tmp_path_factory, data, args):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz.csv"
    path.write_bytes(data)
    argv = args.draw(_fuzz_argv([str(path), str(base / "no-such.csv"), str(base)]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {rc}")
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if rc == 0:
        assert err == "", argv
        return
    assert out == "", argv
    # argparse refuses a command line with its usage, then "ttab <command>:
    # error: ..."; every other refusal is one line of ours.
    argparse_refusal = rc == 2 and re.match(r"usage: ttab.*^ttab [a-z]+: error: ", err, re.M | re.S)
    assert argparse_refusal or err.startswith(("error: ", "usage error: ", "i/o error: ")), argv
