"""Tick encodings checked against stdlib calendar arithmetic."""

import random
from datetime import date, datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings, strategies as st

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
from temporaltable.timepoint import _read_json_int

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


# Per day-or-coarser granularity: the tick of the period holding a date, and
# the period's start date, by plain date arithmetic.
_PERIODS = {
    Granularity.YEAR: (lambda d: d.year - 1970, lambda d: date(d.year, 1, 1)),
    Granularity.QUARTER: (lambda d: (d.year - 1970) * 4 + (d.month - 1) // 3,
                          lambda d: date(d.year, (d.month - 1) // 3 * 3 + 1, 1)),
    Granularity.MONTH: (lambda d: (d.year - 1970) * 12 + d.month - 1,
                        lambda d: date(d.year, d.month, 1)),
    Granularity.WEEK: (lambda d: ((d - EPOCH).days - d.weekday() + 3) // 7,
                       lambda d: d - timedelta(days=d.weekday())),
    Granularity.DAY: (lambda d: (d - EPOCH).days, lambda d: d),
}


@given(st.sampled_from(list(_PERIODS)), st.dates())
@example(Granularity.WEEK, date.min)
@example(Granularity.WEEK, date.max)
@example(Granularity.QUARTER, date(1969, 12, 31))
def test_date_ticks_round_trip_through_the_period_start(g, d):
    tick_of, start_of = _PERIODS[g]
    ticks = tp._date_to_ticks(d, g)
    assert ticks == tick_of(d)
    start = tp._date_from_ticks(ticks, g)
    assert start == start_of(d)
    assert tp._date_to_ticks(start, g) == ticks
    assert start.weekday() == 0 or g is not Granularity.WEEK


@pytest.mark.parametrize("g", [Granularity.WEEK, Granularity.DAY])
def test_a_day_or_week_without_a_date_raises_value_error(g):
    for ticks in (tp._date_to_ticks(date.min, g) - 1, tp._date_to_ticks(date.max, g) + 1):
        point = TimePoint(ticks, g)
        with pytest.raises(ValueError):
            tp.start_date(point)
        with pytest.raises(ValueError):
            point.render()
        assert repr(point) == f"TimePoint({ticks}, Granularity.{g.name})"


@given(
    st.datetimes(
        min_value=datetime(1930, 1, 1), max_value=datetime(2200, 1, 1)
    ).map(lambda d: d.replace(microsecond=0))
)
def test_second_ticks_match_epoch_seconds(dt):
    point = tp.second(dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second)
    oracle = int(dt.replace(tzinfo=timezone.utc).timestamp())
    assert point.ticks == oracle


def test_repr_of_a_point_without_text_falls_back_to_its_ticks():
    assert repr(TimePoint(3, Granularity.DAY)) == "TimePoint('1970-01-04', 'day')"
    # Past year 9999 a point has no text; repr still answers, as the
    # constructor call that makes the point again.
    for g, ticks in ((Granularity.DAY, 3_000_000), (Granularity.HOUR, -10**20),
                     (Granularity.MILLISECOND, 10**30)):
        point = TimePoint(ticks, g, "Australia/Melbourne")
        with pytest.raises((ValueError, OverflowError)):
            point.render()
        text = repr(point)
        assert text == f"TimePoint({ticks}, Granularity.{g.name})"
        assert eval(text) == point


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
        floor_to(tp.year(2011), Granularity.ORDINAL)
    with pytest.raises(PreconditionError):
        floor_to(tp.year(2011), Granularity.DAY)


def test_comparison_needs_matching_granularity():
    with pytest.raises(PreconditionError):
        tp.year(2011) < tp.month(2011, 3)
    assert tp.year(2011) < tp.year(2012)
    for compare in (lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(PreconditionError, match="cannot compare TimePoint with int"):
            compare(tp.year(2011), 2011)


def test_point_construction_refusals():
    with pytest.raises(PreconditionError, match="quarter must be 1..4, got 5"):
        tp.quarter(2020, 5)
    with pytest.raises(ParseError, match="unknown time zone 'Mars/Olympus_Mons'"):
        tp.hour(2020, 1, 1, 0, "Mars/Olympus_Mons")
    with pytest.raises(PreconditionError, match="ticks must be an integer, got 1.5"):
        TimePoint(1.5, Granularity.DAY)


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
    # An hour or a minute may carry seconds (local mean time has them); in
    # UTC only zero seconds align, and the text guesses second.
    ("2011-07-05 17:45:00", "minute", "2011-07-05 17:45", Granularity.SECOND),
    ("2011-07-05 17:45:30", "minute", ParseError, Granularity.SECOND),
    ("2011-07-05 17:00:00", "hour", "2011-07-05 17:00", Granularity.SECOND),
    ("2011-07-05 17:00:30", "hour", ParseError, Granularity.SECOND),
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
        _read_json_int(text)


def test_ordinal_text_reads_json_ints():
    for text, n in [("-2", -2), ("0", 0), ("-0", 0), ("10", 10)]:
        assert _read_json_int(text) == n
    # The text is matched whole; its callers strip what they read.
    with pytest.raises(ParseError):
        _read_json_int(" 6 ")


def test_an_ordinal_index_is_plain_ints():
    with pytest.raises(PreconditionError):
        TimePoint(0, Granularity.ORDINAL)
    with pytest.raises(ParseError):
        parse_timepoint("42", "ordinal")


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


def test_a_repeated_local_time_carries_its_utc_offset():
    # Melbourne fell back on 2021-04-04: 03:00 (UTC+11) became 02:00 (UTC+10).
    zone = "Australia/Melbourne"
    texts = ["2021-04-04 01:00", "2021-04-04 02:00+11:00", "2021-04-04 02:00+10:00",
             "2021-04-04 03:00"]
    points = [TimePoint(k, Granularity.HOUR, zone) for k in range(449294, 449298)]
    assert [p.render() for p in points] == texts
    assert [parse_timepoint(text, "hour", zone) for text in texts] == points
    assert TimePoint(449295 * 60 + 30, Granularity.MINUTE, zone).render() == (
        "2021-04-04 02:30+11:00")
    assert TimePoint(449296 * 3_600_000 + 5, Granularity.MILLISECOND, zone).render() == (
        "2021-04-04 02:00:00.005+10:00")
    # An offset where none is needed is read too, and must be the zone's.
    assert parse_timepoint("2021-04-04 05:00+10:00", "hour", zone) == tp.hour(
        2021, 4, 4, 5, zone=zone)
    assert parse_timepoint("2011-07-05 17:00+00:00", "minute") == tp.minute(2011, 7, 5, 17, 0)
    for text, at in [("2021-04-04 02:00+09:00", zone), ("2021-04-04 05:00+11:00", zone),
                     ("2011-07-05 17:00+01:00", None)]:
        with pytest.raises(ParseError, match="is not at UTC"):
            parse_timepoint(text, "hour", at)
    assert guess_granularity("2021-04-04 02:00+10:00") is Granularity.MINUTE


# Zones whose offsets had seconds before standard time (local mean time),
# some of them also across a clock change: Amsterdam's summer time of
# 1916-1937 ran at +01:19:32.
LMT_ZONES = ["Australia/Melbourne", "Asia/Kolkata", "Europe/Amsterdam", "America/New_York",
             "Africa/Monrovia", "Europe/Dublin"]
_S_1883 = int(datetime(1883, 1, 1, tzinfo=timezone.utc).timestamp())
_S_1900 = int(datetime(1900, 1, 1, tzinfo=timezone.utc).timestamp())
_S_2022 = int(datetime(2022, 1, 1, tzinfo=timezone.utc).timestamp())


def test_a_local_mean_time_minute_round_trips():
    zone = "Australia/Melbourne"
    point = TimePoint(-45757440, Granularity.MINUTE, zone)
    assert point.render() == "1883-01-01 09:39:52"  # the offset was +09:39:52
    assert parse_timepoint(point.render(), "minute", zone) == point
    hour = floor_to(point, Granularity.HOUR)
    assert hour.render() == "1883-01-01 09:39:52"
    assert parse_timepoint(hour.render(), "hour", zone) == hour
    # UTC text is as before.
    assert tp.minute(1883, 1, 1, 0, 0).render() == "1883-01-01 00:00"


@given(
    st.sampled_from(LMT_ZONES),
    st.sampled_from([Granularity.HOUR, Granularity.MINUTE]),
    st.integers(_S_1883, _S_1900) | st.integers(_S_1883, _S_2022 - 1),
)
def test_zoned_hours_and_minutes_round_trip_from_1883(zone, g, seconds):
    point = TimePoint(seconds // (MS_PER_TICK[g] // 1000), g, zone)
    text = point.render()
    assert parse_timepoint(text, g, zone) == point
    c = datetime.fromtimestamp(point.ticks * MS_PER_TICK[g] // 1000, ZoneInfo(zone))
    clock = f"{c:%Y-%m-%d %H:%M}" + (f":{c.second:02d}" if c.second else "")
    assert text in (clock, clock + c.isoformat()[19:])


# --- UTC fast paths: the same ticks, text and errors as datetime arithmetic --

SUBDAILY = [g for g in Granularity if g.is_subdaily]
EPOCH_UTC = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _civil_text(g, y, mo, d, h, mi, s, ms):
    text = f"{y:04d}-{mo:02d}-{d:02d} {h:02d}:{mi:02d}"
    # An hour or minute shows seconds only where its zone's offset has them.
    if g is Granularity.SECOND or g is Granularity.MILLISECOND or s:
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
    text = _civil_text(g, c.year, c.month, c.day, c.hour, c.minute, c.second,
                       c.microsecond // 1000)
    if c.utcoffset() != c.replace(fold=1 - c.fold).utcoffset():
        # A repeated local time carries its UTC offset, as isoformat writes it.
        text += c.isoformat(timespec="seconds")[19:]
    return text


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


# --- the fast path against the grammar ---------------------------------------

def _outcome(parse, text, g, zone):
    """The (ticks, granularity, zone) ``parse`` reads, or its ParseError text."""
    try:
        point = parse(text, g, zone)
    except ParseError as exc:
        return str(exc)
    return (point.ticks, point.granularity, point.zone)


FAST = [Granularity.DAY, Granularity.HOUR]
# The fast path reads only unzoned text; a zoned point keeps the grammar.
FAST_ZONES = (None, "UTC", "utc", "Australia/Melbourne")


def _field(lo, hi, top):
    """A two-digit field: mostly in lo..hi, else anywhere in 0..top."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi), st.just(lo), st.integers(0, top))


@st.composite
def _near_fast_shapes(draw):
    """Text at and near the canonical day and clock shapes: fields in and
    out of range, other separators and fraction widths, one character
    replaced, inserted or dropped, and surrounding whitespace."""
    y = draw(st.sampled_from([0, 1, 1969, 1970, 2011, 9999]) | st.integers(0, 9999))
    text = f"{y:04d}-{draw(_field(1, 12, 99)):02d}-{draw(_field(1, 28, 99)):02d}"
    depth = draw(st.integers(0, 4))
    if depth >= 1:
        text += draw(st.sampled_from("   T")) + f"{draw(_field(0, 23, 99)):02d}"
    for _ in range(min(depth, 3) - 1):
        text += f":{draw(_field(0, 59, 99)):02d}"
    if depth == 4:
        fraction = st.sampled_from(["123", "999", "000"]) | st.text("0123456789", max_size=4)
        text += "." + draw(fraction)
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from("0123456789-:. TZ+٣"))
        text = draw(st.sampled_from([text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                                     text[:i] + text[i + 1:]]))
    pad = st.sampled_from(["", "", "", " ", "\t", "\n"])
    return draw(pad) + text + draw(pad)


@given(_near_fast_shapes())
@example("2011-07-05 17:00:00.123")
@example("0001-01-01 00:00")
@example("9999-12-31 23:59:59.999")
@example("2011-02-30")
@example("2011-07-05 24:00")
@example("2011-07-05 17:60")
@example("2011-07-05 17:45:00.1")
# Forms that Python 3.11 and later read with fromisoformat and the grammar
# refuses: each must give the grammar's error.
@example("20110705")
@example("2011-W27-2")
@example("2011-07-05T17")
@example("2011-07-05Z")
@example("2011-07-05 17:00Z")
@settings(max_examples=500)
def test_fast_parse_matches_the_grammar(text):
    for g in FAST:
        for zone in FAST_ZONES:
            assert _outcome(parse_timepoint, text, g, zone) == _outcome(
                tp._parse_forms, text, g, zone), (text, g, zone)


def test_fast_parse_matches_the_grammar_on_a_grid():
    days = [f"{y}-{m}-{d}" for y in ("0000", "0001", "1970", "2000", "2100", "9999")
            for m in ("00", "01", "02", "12", "13") for d in ("00", "01", "28", "29", "31", "32")]
    clocks = ["", " 00:00", " 23:00", " 24:00", " 23:59", " 12:60", " 23:59:59", " 23:59:60",
              " 00:00:00.000", " 23:59:59.999", " 12:00:00.5", "T12:00", " 12:00 "]
    for text in (day + clock for day in days for clock in clocks):
        for g in FAST:
            for zone in FAST_ZONES:
                assert _outcome(parse_timepoint, text, g, zone) == _outcome(
                    tp._parse_forms, text, g, zone), (text, g, zone)


@given(
    st.sampled_from(SUBDAILY),
    st.sampled_from([None, "UTC", "utc"]),
    # Every millisecond of years 1 to 9999.
    st.integers((1 - tp._EPOCH_ORDINAL) * 86_400_000,
                (tp._MAX_ORDINAL + 1 - tp._EPOCH_ORDINAL) * 86_400_000 - 1),
)
def test_fast_render_matches_datetime_and_parses_back(g, zone, ms):
    point = TimePoint(ms // MS_PER_TICK[g], g, zone)
    text = point.render()
    assert text == _render_by_datetime(point)
    want = (point.ticks, g, zone)
    assert _outcome(parse_timepoint, text, g, zone) == want
    assert _outcome(tp._parse_forms, text, g, zone) == want
