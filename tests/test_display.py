import pathlib
import re

import pytest

from temporaltable import (
    Granularity,
    IngestConfig,
    PreconditionError,
    SchemaError,
    TimePoint,
    build,
    ingest,
    render_summary,
    timepoint as tp,
)
from conftest import DATA

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_building_a_table_prints_the_block_that_follows_it(capsys):
    section = README.read_text(encoding="utf-8").split("## Building a table\n", 1)[1]
    code, shown = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)[:2]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == shown


def test_summary_header_and_key_line(tb):
    lines = render_summary(tb).splitlines()
    assert lines[0] == "# A tsibble: 12 x 5 [1Y]"
    assert lines[1] == "# Key:       country, gender [6]"


def test_summary_preview_and_trailer(tb):
    lines = render_summary(tb).splitlines()
    assert lines[2].split() == ["country", "continent", "gender", "year", "count"]
    assert lines[3].split() == ["Australia", "Oceania", "Female", "2011", "120"]
    assert lines[-1] == "# ... with 7 more rows"
    assert len(lines) == 2 + 1 + 5 + 1


def test_summary_aligns_numbers_right(tb):
    lines = render_summary(tb).splitlines()
    header, first = lines[2], lines[3]
    assert header.endswith("count")
    assert first.endswith(" 120")
    assert len(first) == len(header)


def test_no_trailer_when_everything_fits():
    t = build({"t": [1, 2], "v": [1, 2]}, "t")
    lines = render_summary(t).splitlines()
    assert lines[0] == "# A tsibble: 2 x 2 [1]"
    assert not any(line.startswith("# ...") for line in lines)
    assert len(lines) == 1 + 1 + 2


def test_no_key_line_without_key():
    t = build({"t": [1], "v": [1]}, "t")
    assert "# Key:" not in render_summary(t)


def test_zone_shown_for_subdaily_indexes():
    t = build({"t": [tp.hour(2011, 7, 5, 17), tp.hour(2011, 7, 5, 18)], "v": [1, 2]}, "t")
    assert render_summary(t).splitlines()[0] == "# A tsibble: 2 x 2 [1h] <UTC>"
    z = build(
        {"t": [tp.minute(2011, 7, 5, 17, 0, zone="America/New_York")], "v": [1]}, "t"
    )
    assert render_summary(z).splitlines()[0] == "# A tsibble: 1 x 2 [?] <America/New_York>"


def test_zone_hidden_for_daily_and_coarser(tb):
    assert "<" not in render_summary(tb).splitlines()[0]
    t = build({"t": [tp.day(2011, 7, 5)], "v": [1]}, "t")
    assert "<" not in render_summary(t).splitlines()[0]


def test_flights_summary_irregular():
    cfg = IngestConfig(
        str(DATA / "flights10.csv"),
        index="sched_dep_datetime",
        key=("flight_num", "tailnum", "origin"),
        regular=False,
    )
    t = ingest(cfg)
    lines = render_summary(t).splitlines()
    assert lines[0] == "# A tsibble: 10 x 22 [!] <UTC>"
    assert lines[1] == "# Key:       flight_num, tailnum, origin [7]"
    assert lines[-1] == "# ... with 5 more rows"


def test_thousands_separators():
    n = 1200
    t = build({"t": list(range(n)), "v": [0] * n}, "t")
    lines = render_summary(t).splitlines()
    assert lines[0] == "# A tsibble: 1,200 x 2 [1]"
    assert lines[-1] == "# ... with 1,195 more rows"


def test_missing_cells_render_empty():
    t = build({"t": [1, 2], "v": [None, 2.5], "b": [True, None]}, "t")
    lines = render_summary(t).splitlines()
    assert lines[1].split() == ["t", "v", "b"]
    assert lines[2].split() == ["1", "true"]
    assert lines[3].split() == ["2", "2.5"]


def test_empty_table_summary():
    t = build({"t": [], "v": []}, "t")
    lines = render_summary(t).splitlines()
    assert lines[0] == "# A tsibble: 0 x 2 [?]"
    assert lines[1].split() == ["t", "v"]
    assert len(lines) == 2


def test_preview_width_override(tb):
    lines = render_summary(tb, preview=12).splitlines()
    assert not lines[-1].startswith("# ...")
    assert len(lines) == 2 + 1 + 12


@pytest.mark.parametrize("preview", [-1, 2.0, True, "5", None])
def test_summary_refuses_a_preview_that_is_no_row_count(tb, preview):
    with pytest.raises(PreconditionError,
                       match=f"^preview must be a non-negative integer, got {re.escape(repr(preview))}$"):
        render_summary(tb, preview=preview)
    lines = render_summary(tb, preview=0).splitlines()
    assert lines[2:] == ["country  continent  gender  year  count", "# ... with 12 more rows"]


def test_summary_refuses_a_preview_point_past_year_9999():
    # The same SchemaError the CSV writers raise, leftmost column first.
    days = [TimePoint(0, Granularity.DAY), TimePoint(3_000_001, Granularity.DAY)]
    t = build({"v": [1, 2], "d": [TimePoint(k, Granularity.DAY) for k in (3_000_000, 3_000_001)],
               "e": days}, "d")
    with pytest.raises(SchemaError, match=r"^column 'd' holds a time point at row 0 \(day tick "
                       r"3000000\) that cannot be written: year 10183 is out of range$"):
        render_summary(t)
    t = build({"d": [1, 2], "e": days}, "d")
    with pytest.raises(SchemaError, match=r"^column 'e' holds a time point at row 1 "):
        render_summary(t)
    # Only the preview is rendered: a point past it does not stop the summary.
    assert render_summary(t, preview=1).splitlines()[-1] == "# ... with 1 more rows"
