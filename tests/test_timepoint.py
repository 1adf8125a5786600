"""Tick encodings checked against stdlib calendar arithmetic."""

import random
from datetime import date, datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, strategies as st

from temporaltable import (
    ConversionError,
    Granularity,
    ParseError,
    PreconditionError,
    TimePoint,
    floor_to,
    guess_granularity,
    parse_timepoint,
    timepoint as tp,
)
from temporaltable.granularity import MS_PER_TICK

EPOCH = date(1970, 1, 1)


@given(st.dates(min_value=date(1800, 1, 2), max_value=date(2300, 1, 1)))
def test_day_ticks_match_date_subtraction(d):
    point = tp.day(d.year, d.month, d.day)
    assert point.ticks == (d - EPOCH).days


@given(st.integers(min_value=1800, max_value=2300), st.integers(min_value=1, max_value=12))
def test_month_ticks_linear_in_calendar(y, m):
    assert tp.month(y, m).ticks == (y - 1970) * 12 + (m - 1)


def test_year_and_quarter_ticks():
    assert tp.year(1970).ticks == 0
    assert tp.year(2011).ticks == 41
    assert tp.quarter(1970, 1).ticks == 0
    assert tp.quarter(2011, 3).ticks == (2011 - 1970) * 4 + 2


def test_week_ticks_iso_monday_aligned():
    # The epoch fell on a Thursday; its ISO week began Monday 1969-12-29.
    assert tp.week(1970, 1).ticks == 0
    for _ in range(200):
        d = EPOCH + timedelta(days=random.Random(7).randrange(-20000, 20000))
        iso = d.isocalendar()
        w = tp.week(iso[0], iso[1])
        monday = d - timedelta(days=d.weekday())
        assert w.ticks == ((monday - EPOCH).days + 3) // 7


@given(
    st.datetimes(
        min_value=datetime(1930, 1, 1), max_value=datetime(2200, 1, 1)
    ).map(lambda d: d.replace(microsecond=0))
)
def test_second_ticks_match_epoch_seconds(dt):
    point = tp.second(dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)
    oracle = int(dt.replace(tzinfo=timezone.utc).timestamp())
    assert point.ticks == oracle


def test_subdaily_zone_changes_ticks_not_rendering_zone():
    utc = tp.hour(2017, 8, 3, 17)
    ny = tp.hour(2017, 8, 3, 17, zone="America/New_York")
    # 17:00 in New York in August is 21:00 UTC.
    assert ny.ticks - utc.ticks == 4
    assert ny.render() == "2017-08-03 17:00"


def test_flooring_examples():
    assert floor_to(tp.day(2013, 1, 15), Granularity.MONTH) == tp.month(2013, 1)
    assert floor_to(tp.day(2013, 1, 1), Granularity.DAY) == tp.day(2013, 1, 1)
    t = tp.second(2017, 8, 3, 17, 45, 0)
    # Independent route: through the civil datetime of the tick.
    civil = datetime.fromtimestamp(t.ticks, tz=timezone.utc)
    assert floor_to(t, Granularity.YEAR) == tp.year(civil.year)
    assert floor_to(t, Granularity.QUARTER) == tp.quarter(2017, 3)
    assert floor_to(t, Granularity.WEEK) == tp.week(2017, 31)


def test_flooring_subdaily_is_utc_division():
    t = tp.minute(2017, 8, 3, 17, 45)
    assert floor_to(t, Granularity.HOUR).ticks == t.ticks // 60


def test_flooring_uses_zone_for_calendar_targets():
    # 03:00 UTC on Jan 1 is still Dec 31 in New York.
    t = TimePoint(tp.hour(2017, 1, 1, 3).ticks, Granularity.HOUR, "America/New_York")
    assert floor_to(t, Granularity.DAY) == tp.day(2016, 12, 31)
    assert floor_to(t, Granularity.YEAR) == tp.year(2016)


def test_flooring_idempotent_and_monotone():
    rng = random.Random(11)
    grans = [
        Granularity.YEAR, Granularity.QUARTER, Granularity.MONTH,
        Granularity.WEEK, Granularity.DAY,
    ]
    for _ in range(300):
        a = tp.day(rng.randrange(1950, 2050), rng.randrange(1, 13), rng.randrange(1, 29))
        b = tp.day(rng.randrange(1950, 2050), rng.randrange(1, 13), rng.randrange(1, 29))
        g = rng.choice(grans)
        fa, fb = floor_to(a, g), floor_to(b, g)
        assert floor_to(fa, g) == fa
        if a <= b:
            assert fa <= fb


def test_flooring_errors():
    with pytest.raises(ConversionError):
        floor_to(tp.ordinal(3), Granularity.YEAR)
    assert floor_to(tp.ordinal(3), Granularity.ORDINAL) == tp.ordinal(3)
    with pytest.raises(PreconditionError):
        floor_to(tp.year(2011), Granularity.DAY)


def test_comparison_needs_matching_granularity():
    with pytest.raises(PreconditionError):
        tp.year(2011) < tp.month(2011, 3)
    assert tp.year(2011) < tp.year(2012)


RENDERED = [
    (tp.year(2011), "2011"),
    (tp.quarter(2011, 3), "2011 Q3"),
    (tp.month(2011, 7), "2011-07"),
    (tp.week(2011, 7), "2011 W07"),
    (tp.day(2011, 7, 5), "2011-07-05"),
    (tp.hour(2011, 7, 5, 17), "2011-07-05 17:00"),
    (tp.minute(2011, 7, 5, 17, 45), "2011-07-05 17:45"),
    (tp.second(2011, 7, 5, 17, 45, 0), "2011-07-05 17:45:00"),
    (tp.millisecond(2011, 7, 5, 17, 45, 0, 123), "2011-07-05 17:45:00.123"),
    (tp.ordinal(42), "42"),
]


@pytest.mark.parametrize("point,text", RENDERED)
def test_canonical_rendering(point, text):
    assert point.render() == text


@pytest.mark.parametrize("point,text", RENDERED)
def test_parse_inverts_render(point, text):
    assert parse_timepoint(text, point.granularity) == point


def test_parse_alternates():
    assert parse_timepoint("2011 Jul", Granularity.MONTH) == tp.month(2011, 7)
    assert parse_timepoint("2011 jul", Granularity.MONTH) == tp.month(2011, 7)
    assert parse_timepoint("2011-07-05T17:45", Granularity.MINUTE) == tp.minute(2011, 7, 5, 17, 45)
    assert parse_timepoint("2011-07-05 17", Granularity.HOUR) == tp.hour(2011, 7, 5, 17)


def test_parse_hour_reads_the_zone_offset_minutes():
    # An hour in Kolkata (UTC+05:30) starts at :30 local time.
    kolkata = "Asia/Kolkata"
    point = parse_timepoint("2011-07-05 22:30", Granularity.HOUR, kolkata)
    assert point == tp.hour(2011, 7, 5, 17)
    assert (point.zone, point.render()) == (kolkata, "2011-07-05 22:30")
    for text in ("2011-07-05 22:00", "2011-07-05 22"):
        with pytest.raises(ParseError, match="align"):
            parse_timepoint(text, Granularity.HOUR, kolkata)


def test_parse_rejects_malformed():
    for text, g in [
        ("2011-13", Granularity.MONTH),
        ("2011 Q5", Granularity.QUARTER),
        ("2011-02-30", Granularity.DAY),
        ("2011-07-05 17:30", Granularity.HOUR),
        ("noise", Granularity.YEAR),
    ]:
        with pytest.raises(ParseError):
            parse_timepoint(text, g)


def test_parse_random_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        g = rng.choice([g for g in Granularity if g is not Granularity.ORDINAL])
        span = 3000 if g in (Granularity.SECOND, Granularity.MILLISECOND) else 2000
        point = TimePoint(rng.randrange(0, span), g)
        assert parse_timepoint(point.render(), g) == point


def test_guess_granularity():
    cases = {
        "2011": Granularity.YEAR,
        "2011 Q3": Granularity.QUARTER,
        "2011-07": Granularity.MONTH,
        "2011 W07": Granularity.WEEK,
        "2011-07-05": Granularity.DAY,
        "2011-07-05 17:45": Granularity.MINUTE,
        "2011-07-05 17:45:00": Granularity.SECOND,
        "2011-07-05 17:45:00.123": Granularity.MILLISECOND,
    }
    for text, g in cases.items():
        assert guess_granularity(text) is g
    assert guess_granularity("nonsense") is None


# The grammar at its edges: (text, declared granularity, what parsing at it
# gives — the rendered point, or the error — and what guessing gives).
GRAMMAR = [
    # Month names are ASCII, in any case; U+017F (long s) folds to "s" only
    # under Unicode case folding, so it is no "sep".
    ("2011 Jul", "month", "2011-07", Granularity.MONTH),
    ("2011 jUL", "month", "2011-07", Granularity.MONTH),
    ("2011 ſep", "month", ParseError, None),
    ("2011 Spt", "month", ParseError, None),
    ("2011-7", "month", ParseError, None),
    # The form matches, so it guesses month; the month number does not parse.
    ("2011-13", "month", ParseError, Granularity.MONTH),
    ("2011\tQ3", "quarter", "2011 Q3", Granularity.QUARTER),
    ("-5 W01", "week", ParseError, Granularity.WEEK),
    # Hour is never guessed, and "HH:00" guesses minute.
    ("2011-07-05T17", "hour", "2011-07-05 17:00", None),
    ("2011-07-05 17", "hour", "2011-07-05 17:00", None),
    ("2011-07-05 17:00", "hour", "2011-07-05 17:00", Granularity.MINUTE),
    ("2011-07-05 17:45:00.1", "millisecond", "2011-07-05 17:45:00.100",
     Granularity.MILLISECOND),
    ("2011 Q3", "quarter", "2011 Q3", Granularity.QUARTER),
    # Surrounding whitespace is stripped; digits are ASCII, leading zeros
    # allowed in a year.
    (" 2011 ", "year", "2011", Granularity.YEAR),
    ("0011", "year", "11", Granularity.YEAR),
    ("٢٠١١", "year", ParseError, None),
    ("٢٠٢١-٠١-٠١", "day", ParseError, None),
    ("2011-07-05 ١٧:00", "minute", ParseError, None),
]


@pytest.mark.parametrize("text,g,parsed,guessed", GRAMMAR)
def test_grammar_pinned(text, g, parsed, guessed):
    if parsed is ParseError:
        with pytest.raises(ParseError):
            parse_timepoint(text, g)
    else:
        assert parse_timepoint(text, g).render() == parsed
    assert guess_granularity(text) is guessed


@pytest.mark.parametrize("text", ["+5", "007", "٣", "1_0", "1.0"])
def test_ordinal_text_is_a_json_int(text):
    with pytest.raises(ParseError):
        parse_timepoint(text, "ordinal")


def test_ordinal_text_reads_json_ints():
    for text, n in [("-2", -2), ("0", 0), ("-0", 0), (" 6 ", 6), ("10", 10)]:
        assert parse_timepoint(text, "ordinal") == tp.ordinal(n)


def test_local_times_skipped_by_dst_are_rejected():
    # Melbourne sprang forward on 2021-10-03: 02:00 became 03:00.
    with pytest.raises(ParseError, match="skip"):
        parse_timepoint("2021-10-03 02:30", "minute", "Australia/Melbourne")
    with pytest.raises(ParseError, match="skip"):
        tp.hour(2021, 10, 3, 2, zone="Australia/Melbourne")
    mel = ZoneInfo("Australia/Melbourne")
    for text, h in [("2021-10-03 01:30", 1), ("2021-10-03 03:30", 3)]:
        point = parse_timepoint(text, "minute", "Australia/Melbourne")
        assert point.render() == text
        assert point.ticks * 60 == int(datetime(2021, 10, 3, h, 30, tzinfo=mel).timestamp())
    # A repeated local time (fall back) still reads as its first instant.
    first = parse_timepoint("2021-04-04 02:30", "minute", "Australia/Melbourne")
    assert first.ticks * 60 == int(datetime(2021, 4, 4, 2, 30, tzinfo=mel).timestamp())


# --- UTC fast paths: the same ticks, text and errors as datetime arithmetic --

SUBDAILY = [g for g in Granularity if g.is_subdaily]
EPOCH_UTC = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _civil_text(g, y, mo, d, h, mi, s, ms):
    text = f"{y:04d}-{mo:02d}-{d:02d} {h:02d}:{mi:02d}"
    if g is Granularity.SECOND or g is Granularity.MILLISECOND:
        text += f":{s:02d}"
    if g is Granularity.MILLISECOND:
        text += f".{ms:03d}"
    return text


@given(
    st.sampled_from(SUBDAILY),
    st.sampled_from([None, "UTC", "utc"]),
    st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
              st.integers(0, 25), st.integers(0, 61), st.integers(0, 61), st.integers(0, 999)),
)
def test_utc_subdaily_parse_matches_datetime(g, zone, fields):
    # Fields finer than g are zero, as the text at g carries none of them.
    keep = {Granularity.HOUR: 4, Granularity.MINUTE: 5, Granularity.SECOND: 6}.get(g, 7)
    fields = fields[:keep] + (0,) * (7 - keep)
    y, mo, d, h, mi, s, ms = fields
    text = _civil_text(g, *fields)
    try:
        local = datetime(y, mo, d, h, mi, s, ms * 1000, tzinfo=timezone.utc)
    except ValueError as exc:
        with pytest.raises(ParseError) as info:
            parse_timepoint(text, g, zone)
        assert str(info.value) == f"invalid civil time {fields}: {exc}"
        return
    point = parse_timepoint(text, g, zone)
    want = (local - EPOCH_UTC) // timedelta(milliseconds=MS_PER_TICK[g])
    assert (point.ticks, point.granularity, point.zone) == (want, g, zone)
    assert point.render() == text


def _render_by_datetime(point):
    """The text of a sub-daily point from its zone-local datetime."""
    g, zone = point.granularity, point.zone
    tz = timezone.utc if zone in (None, "UTC", "utc") else ZoneInfo(zone)
    c = (EPOCH_UTC + timedelta(milliseconds=point.ticks * MS_PER_TICK[g])).astimezone(tz)
    return _civil_text(g, c.year, c.month, c.day, c.hour, c.minute, c.second,
                       c.microsecond // 1000)


@given(
    st.sampled_from(SUBDAILY),
    st.sampled_from([None, "UTC", "utc", "Australia/Melbourne"]),
    # From before year 1 to after year 9999, in milliseconds since the epoch.
    st.integers(-63 * 10**12, 254 * 10**12),
)
def test_subdaily_render_matches_datetime(g, zone, ms):
    point = TimePoint(ms // MS_PER_TICK[g], g, zone)
    try:
        want = _render_by_datetime(point)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            point.render()
        assert str(info.value) == str(exc)
        return
    assert point.render() == want
