"""Time points as integer ticks at a named granularity.

A :class:`TimePoint` stores a signed tick count since the Unix epoch
(1970-01-01 00:00:00 UTC) at its granularity: years since 1970, months since
1970-01, days since 1970-01-01, seconds since the epoch instant, and so on.
Weeks are ISO weeks starting Monday; week 0 is the week containing the epoch.
Integer ticks keep interval arithmetic exact, which the GCD-based interval
inference relies on.  A point is calendar time: an ordinal index (simulation
steps, survey waves) holds plain ints, whose text is a JSON int, and no
TimePoint has the ordinal granularity.

Unzoned text in the exact canonical shape of a day or an hour is read
through the stdlib's C date code (``fromisoformat``); the regex grammar
``_FORMS`` reads every other text, and decides every error.  Unzoned days
and sub-daily points are written by one renderer, ``_day_texts``: a date's
text from its ordinal (``isoformat``), then each clock.

Sub-daily ticks are UTC instants.  An optional zone label changes how a point
renders and how it floors to day-or-coarser granularities; it never changes
the stored ticks.  Where a clock change repeats a local time, the text
carries its UTC offset (RFC 3339, ``2021-04-04 02:00+11:00``), and parsing
takes an offset to pick the instant (PEP 495 ``fold``).
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from datetime import date, datetime, time, timedelta, timezone

from .errors import ConversionError, ParseError, PreconditionError
from .granularity import MS_PER_TICK, Granularity, coarser_or_equal
from .record import Frozen

_EPOCH_DATE = date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH_DATE.toordinal()
_MAX_ORDINAL = date.max.toordinal()
_MS_PER_DAY = 86_400_000
_EPOCH_UTC = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_MS = timedelta(milliseconds=1)

_MONTH_ABBR = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}


def _is_utc(zone: str | None) -> bool:
    return zone is None or zone.upper() == "UTC"


def ZoneInfo(zone: str):
    """``zoneinfo.ZoneInfo``, imported on the first zone that is not UTC
    (most tables have none): the first call puts it in this function's
    place."""
    global ZoneInfo
    from zoneinfo import ZoneInfo

    return ZoneInfo(zone)


def _tzinfo(zone: str | None):
    if _is_utc(zone):
        return timezone.utc
    try:
        return ZoneInfo(zone)
    except Exception as exc:
        raise ParseError(f"unknown time zone {zone!r}") from exc


def _require_granularity(g) -> Granularity:
    if isinstance(g, Granularity):
        return g
    try:
        return Granularity(g)
    except ValueError:
        raise PreconditionError(f"unknown granularity {g!r}") from None


class TimePoint(Frozen):
    """An instant at a granularity; ordered by ticks within one granularity.
    The zone is not compared: equal points are the same instant."""

    __slots__ = ("ticks", "granularity", "zone")

    def __init__(self, ticks: int, granularity: Granularity, zone: str | None = None):
        if not isinstance(ticks, int) or isinstance(ticks, bool):
            raise PreconditionError(f"ticks must be an integer, got {ticks!r}")
        if granularity is Granularity.ORDINAL:
            raise PreconditionError("an ordinal index holds plain ints, not TimePoints")
        _set_ticks(self, ticks)
        _set_granularity(self, granularity)
        _set_zone(self, zone)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ticks == other.ticks and self.granularity == other.granularity

    def __hash__(self):
        return hash((self.ticks, self.granularity))

    def _check_comparable(self, other):
        if not isinstance(other, TimePoint):
            raise PreconditionError(f"cannot compare TimePoint with {type(other).__name__}")
        if other.granularity is not self.granularity:
            raise PreconditionError(
                f"cannot compare {self.granularity.value} with {other.granularity.value}"
            )

    def __lt__(self, other):
        self._check_comparable(other)
        return self.ticks < other.ticks

    def __le__(self, other):
        self._check_comparable(other)
        return self.ticks <= other.ticks

    def __gt__(self, other):
        self._check_comparable(other)
        return self.ticks > other.ticks

    def __ge__(self, other):
        self._check_comparable(other)
        return self.ticks >= other.ticks

    def __repr__(self):
        try:
            return f"TimePoint({self.render()!r}, {self.granularity.value!r})"
        except (ValueError, OverflowError):
            # A date outside years 1 to 9999 has no text: the constructor call.
            return f"TimePoint({self.ticks}, Granularity.{self.granularity.name})"

    def render(self) -> str:
        return render_timepoint(self)


# A point is made for each distinct cell read and each index value made, so
# its fields are set through their slots' own setters, the fastest way past
# the frozen ``__setattr__``.
_set_ticks = TimePoint.ticks.__set__
_set_granularity = TimePoint.granularity.__set__
_set_zone = TimePoint.zone.__set__


# --- tick <-> civil conversions -------------------------------------------

def _date_from_ticks(ticks: int, g: Granularity) -> date:
    """Start date of the period a day-or-coarser tick denotes."""
    if g is Granularity.YEAR:
        return date(1970 + ticks, 1, 1)
    if g is Granularity.QUARTER:
        y, q = divmod(ticks, 4)
        return date(1970 + y, 3 * q + 1, 1)
    if g is Granularity.MONTH:
        y, m = divmod(ticks, 12)
        return date(1970 + y, m + 1, 1)
    if g is Granularity.WEEK:
        return _EPOCH_DATE + timedelta(days=7 * ticks - 3)
    if g is Granularity.DAY:
        return _EPOCH_DATE + timedelta(days=ticks)
    raise ConversionError(f"{g.value} has no date representation")


def _date_to_ticks(d: date, g: Granularity) -> int:
    """Tick of the period at ``g`` containing date ``d``."""
    if g is Granularity.YEAR:
        return d.year - 1970
    if g is Granularity.QUARTER:
        return (d.year - 1970) * 4 + (d.month - 1) // 3
    if g is Granularity.MONTH:
        return (d.year - 1970) * 12 + (d.month - 1)
    if g is Granularity.WEEK:
        monday = d - timedelta(days=d.weekday())
        return ((monday - _EPOCH_DATE).days + 3) // 7
    if g is Granularity.DAY:
        return d.toordinal() - _EPOCH_ORDINAL
    raise ConversionError(f"{g.value} ticks are not date-based")


def _instant_from_ticks(ticks: int, g: Granularity) -> datetime:
    return _EPOCH_UTC + timedelta(milliseconds=ticks * MS_PER_TICK[g])


def _civil_datetime(tp: TimePoint) -> datetime:
    """Zone-local civil time of a sub-daily point."""
    return _instant_from_ticks(tp.ticks, tp.granularity).astimezone(_tzinfo(tp.zone))


def _ticks_from_civil(
    g: Granularity, zone: str | None, y, mo=1, d=1, h=0, mi=0, s=0, ms=0, offset=None
) -> int:
    """Encode a civil time at a sub-daily granularity; must align exactly.

    ``offset`` (a timedelta, or None) is the UTC offset written with the
    text: it selects one of the two instants of a local time that a clock
    change repeats (PEP 495 ``fold``), and must be the zone's offset."""
    try:
        if _is_utc(zone) and offset is None:
            # No offset to apply: whole days from the date's ordinal.  date()
            # and time() check the fields as datetime() does, in the same
            # order and with the same errors.
            days = date(y, mo, d).toordinal() - _EPOCH_ORDINAL
            time(h, mi, s, ms * 1000)
            total_ms = (((days * 24 + h) * 60 + mi) * 60 + s) * 1000 + ms
        else:
            local = datetime(y, mo, d, h, mi, s, ms * 1000, tzinfo=_tzinfo(zone))
            if offset is not None:
                local = next(
                    (c for c in (local, local.replace(fold=1)) if c.utcoffset() == offset), None
                )
                if local is None:
                    raise ValueError(f"{zone or 'UTC'} is not at UTC{_offset_text(offset)} then")
            total_ms = (local - _EPOCH_UTC) // _ONE_MS
            # A local time that a clock change skips comes back from UTC as
            # another wall-clock time.
            back = local.astimezone(timezone.utc).astimezone(local.tzinfo)
            if back.replace(tzinfo=None) != local.replace(tzinfo=None):
                raise ValueError(f"the clocks in {zone} skip {local:%Y-%m-%d %H:%M:%S}")
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"invalid civil time {(y, mo, d, h, mi, s, ms)}: {exc}") from exc
    unit = MS_PER_TICK[g]
    ticks, rem = divmod(total_ms, unit)
    if rem:
        local = datetime(y, mo, d, h, mi, s, ms * 1000, tzinfo=_tzinfo(zone))
        raise ParseError(
            f"{local.isoformat()} does not align to whole {g.value} ticks "
            f"(offset remainder {rem} ms); use a finer granularity"
        )
    return ticks


def start_date(tp: TimePoint) -> date:
    """Civil start date of the period ``tp`` denotes (local date for sub-daily)."""
    g = tp.granularity
    if g.is_subdaily:
        return _civil_datetime(tp).date()
    return _date_from_ticks(tp.ticks, g)


# --- factories -------------------------------------------------------------

def year(y: int) -> TimePoint:
    return TimePoint(y - 1970, Granularity.YEAR)


def quarter(y: int, q: int) -> TimePoint:
    if not 1 <= q <= 4:
        raise PreconditionError(f"quarter must be 1..4, got {q}")
    return TimePoint((y - 1970) * 4 + q - 1, Granularity.QUARTER)


def month(y: int, mo: int) -> TimePoint:
    if not 1 <= mo <= 12:
        raise PreconditionError(f"month must be 1..12, got {mo}")
    return TimePoint((y - 1970) * 12 + mo - 1, Granularity.MONTH)


def week(iso_year: int, iso_week: int) -> TimePoint:
    try:
        monday = date.fromisocalendar(iso_year, iso_week, 1)
    except ValueError as exc:
        raise PreconditionError(f"invalid ISO week {iso_year} W{iso_week}: {exc}") from exc
    return TimePoint(_date_to_ticks(monday, Granularity.WEEK), Granularity.WEEK)


def day(y: int, mo: int, d: int) -> TimePoint:
    return TimePoint(_date_to_ticks(date(y, mo, d), Granularity.DAY), Granularity.DAY)


def hour(y: int, mo: int, d: int, h: int, zone: str | None = None) -> TimePoint:
    return TimePoint(_ticks_from_civil(Granularity.HOUR, zone, y, mo, d, h), Granularity.HOUR, zone)


def minute(y: int, mo: int, d: int, h: int, mi: int, zone: str | None = None) -> TimePoint:
    return TimePoint(
        _ticks_from_civil(Granularity.MINUTE, zone, y, mo, d, h, mi), Granularity.MINUTE, zone
    )


def second(y: int, mo: int, d: int, h: int, mi: int, s: int, zone: str | None = None) -> TimePoint:
    return TimePoint(
        _ticks_from_civil(Granularity.SECOND, zone, y, mo, d, h, mi, s), Granularity.SECOND, zone
    )


def millisecond(
    y: int, mo: int, d: int, h: int, mi: int, s: int, ms: int, zone: str | None = None
) -> TimePoint:
    return TimePoint(
        _ticks_from_civil(Granularity.MILLISECOND, zone, y, mo, d, h, mi, s, ms),
        Granularity.MILLISECOND,
        zone,
    )


# --- flooring --------------------------------------------------------------

def floor_to(t: TimePoint, g) -> TimePoint:
    """The TimePoint at granularity ``g`` containing ``t``.

    ``g`` must be coarser than or equal to ``t.granularity``.  Sub-daily to
    sub-daily flooring is exact division on UTC ticks; flooring into a
    day-or-coarser granularity goes through the zone-local civil date.
    A calendar point has no ordinal floor.
    """
    g = _require_granularity(g)
    if g is Granularity.ORDINAL:
        raise ConversionError(
            f"cannot floor {t.granularity.value} to ordinal: ordinal and "
            "calendar granularities do not mix"
        )
    if not coarser_or_equal(g, t.granularity):
        raise PreconditionError(
            f"cannot floor {t.granularity.value} to finer granularity {g.value}"
        )
    if t.granularity.is_subdaily and g.is_subdaily:
        factor = MS_PER_TICK[g] // MS_PER_TICK[t.granularity]
        return TimePoint(t.ticks // factor, g, t.zone)
    return TimePoint(_date_to_ticks(start_date(t), g), g)


# --- rendering -------------------------------------------------------------

def render_timepoint(tp: TimePoint) -> str:
    g = tp.granularity
    if g.is_subdaily:
        return _render_clock(tp, g)
    if g is Granularity.DAY:
        return _day_texts(tp.ticks, (tp.ticks,), g)[0]
    if g is Granularity.YEAR:
        return str(1970 + tp.ticks)
    if g is Granularity.QUARTER:
        y, q = divmod(tp.ticks, 4)
        return f"{1970 + y} Q{q + 1}"
    if g is Granularity.MONTH:
        y, m = divmod(tp.ticks, 12)
        return f"{1970 + y}-{m + 1:02d}"
    iso = _date_from_ticks(tp.ticks, g).isocalendar()
    return f"{iso[0]} W{iso[1]:02d}"


# Ticks per day of the granularities whose unzoned text is a date, followed
# by a clock for the sub-daily ones.
_TICKS_PER_DAY = {
    Granularity.DAY: 1, **{g: _MS_PER_DAY // unit for g, unit in MS_PER_TICK.items()}
}
_HOUR_CLOCKS = tuple(f" {h:02d}:00" for h in range(24))


def _day_texts(days: int, ticks, g: Granularity) -> list[str]:
    """The unzoned texts of ``ticks`` at ``g``, day down to millisecond,
    which all fall on day ``days`` since the epoch: the date's text is made
    once, from its ordinal, and each tick's clock follows it, from a table
    for an hour and by ``divmod`` otherwise.  A UTC hour or minute has no
    seconds.

    >>> _day_texts(15_160, [15_160], Granularity.DAY)
    ['2011-07-05']
    >>> _day_texts(15_160, [15_160 * 24, 15_160 * 24 + 17], Granularity.HOUR)
    ['2011-07-05 00:00', '2011-07-05 17:00']
    >>> _day_texts(-1, [-1], Granularity.MILLISECOND)
    ['1969-12-31 23:59:59.999']

    A day outside years 1 to 9999 raises ``date.fromordinal``'s ValueError.
    """
    text = date.fromordinal(days + _EPOCH_ORDINAL).isoformat()
    if g is Granularity.DAY:
        return [text] * len(ticks)
    midnight = days * _TICKS_PER_DAY[g]
    if g is Granularity.HOUR:
        return [text + _HOUR_CLOCKS[tick - midnight] for tick in ticks]
    unit = MS_PER_TICK[g]
    texts = []
    for tick in ticks:
        minutes, ms = divmod((tick - midnight) * unit, 60_000)
        hh, mm = divmod(minutes, 60)
        if g is Granularity.MILLISECOND:
            texts.append(f"{text} {hh:02d}:{mm:02d}:{ms // 1000:02d}.{ms % 1000:03d}")
        elif g is Granularity.SECOND:
            texts.append(f"{text} {hh:02d}:{mm:02d}:{ms // 1000:02d}")
        else:
            texts.append(f"{text} {hh:02d}:{mm:02d}")
    return texts


def _utc_texts(ticks, g: Granularity) -> dict[int, str]:
    """The unzoned text of each distinct tick among ``ticks`` at ``g``, day
    down to millisecond, keyed by tick.  The distinct ticks are sorted and
    cut into days, and each day's run is written by one :func:`_day_texts`
    call, so each distinct day's date text is made once."""
    per_day = _TICKS_PER_DAY[g]
    ticks = sorted(set(ticks))
    texts = {}
    start = 0
    while start < len(ticks):
        days = ticks[start] // per_day
        end = bisect_left(ticks, (days + 1) * per_day, start)
        run = ticks[start:end]
        texts.update(zip(run, _day_texts(days, run, g)))
        start = end
    return texts


def _render_clock(tp: TimePoint, g: Granularity) -> str:
    """The zone-local date and clock of a sub-daily point, down to ``g``.

    A local time that a clock change repeats is followed by its UTC offset
    (RFC 3339), so that both instants keep their own text."""
    if _is_utc(tp.zone):
        days = tp.ticks // _TICKS_PER_DAY[g]
        if 1 <= days + _EPOCH_ORDINAL <= _MAX_ORDINAL:
            return _day_texts(days, (tp.ticks,), g)[0]
    c = _civil_datetime(tp)
    ss, ms = c.second, c.microsecond // 1000
    text = f"{c.year:04d}-{c.month:02d}-{c.day:02d} {c.hour:02d}:{c.minute:02d}"
    # An hour or minute point keeps its local seconds where the zone's
    # offset has them (local mean time, Melbourne's +09:39:52), so that its
    # text parses back to it; a UTC clock never has them.
    if g is Granularity.MILLISECOND:
        text += f":{ss:02d}.{ms:03d}"
    elif g is Granularity.SECOND or ss:
        text += f":{ss:02d}"
    if c.utcoffset() != c.replace(fold=1 - c.fold).utcoffset():
        text += _offset_text(c.utcoffset())
    return text


def _offset_text(offset: timedelta) -> str:
    """A UTC offset as ``+HH:MM``, with ``:SS`` when it has seconds."""
    sign = "-" if offset < timedelta(0) else "+"
    hh, rest = divmod(abs(offset).seconds, 3600)
    mm, ss = divmod(rest, 60)
    return f"{sign}{hh:02d}:{mm:02d}" + (f":{ss:02d}" if ss else "")


# --- parsing ---------------------------------------------------------------

# A JSON int (RFC 8259 section 6): the text of an ordinal index value, and
# of an int cell in CSV.
JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_INT_RE = re.compile(JSON_INT)


def _read_json_int(text: str) -> int:
    """An ordinal index value: ``text``, matched whole, as a JSON int.

    >>> _read_json_int("-42")
    -42
    >>> _read_json_int("007")
    Traceback (most recent call last):
    ...
    temporaltable.errors.ParseError: '007' is not an ordinal (integer) index value
    """
    if not _INT_RE.fullmatch(text):
        raise ParseError(f"{text!r} is not an ordinal (integer) index value")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"a {len(text.lstrip('-'))}-digit int is longer than the "
                         f"{sys.get_int_max_str_digits()} digits int() reads") from None


# Digits are ASCII: ``\d`` would take any Unicode decimal digit.
_DATE = r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
_CLOCK = _DATE + r"[ T]([0-9]{2})"
_MINUTE = _CLOCK + r":([0-9]{2})"
_SECOND = _MINUTE + r":([0-9]{2})"
# A UTC offset (RFC 3339), written only where a clock change repeats a
# local time; seconds for the historical offsets that have them.
_AT = r"([+-][0-9]{2}:[0-9]{2}(?::[0-9]{2})?)?"
# Month names are ASCII in any case ("a" keeps "ſ", U+017F, from folding to "s").
_MONTH_NAME = "((?ai:" + "|".join(_MONTH_ABBR) + "))"


def _on_ints(factory):
    """A form's maker: ``factory`` over the match's groups read as ints."""
    return lambda zone, *fields: factory(*map(int, fields))


def _clock(g: Granularity):
    """A sub-daily form's maker: the date and clock fields at ``g`` (an
    hour's minutes may be left out, and an hour or minute may carry
    seconds), then an optional UTC offset."""

    def make(zone, y, mo, d, h, mi, *rest):
        *sec, offset = rest  # the seconds and milliseconds the form has
        s, ms = (*sec, None, None)[:2]
        if offset is not None:  # "+HH:MM", maybe with ":SS"
            seconds = int(offset[1:3]) * 3600 + int(offset[4:6]) * 60 + int(offset[7:] or 0)
            offset = timedelta(seconds=-seconds if offset[0] == "-" else seconds)
        # Minutes or seconds other than the zone's offset (Kolkata's hours
        # are at :30) do not align to whole ticks, and _ticks_from_civil
        # refuses them.
        ticks = _ticks_from_civil(
            g, zone, int(y), int(mo), int(d), int(h), int(mi or 0), int(s or 0),
            int((ms or "0").ljust(3, "0")), offset,
        )
        return TimePoint(ticks, g, zone)

    return make


# The text forms, in guessing order: (granularity, pattern matched whole,
# maker of the point from the zone and the match's groups, guessable).
# Parsing tries the rows of its granularity; guessing takes the first
# guessable row that matches.  Hour is never guessed.
_FORMS = tuple(
    (g, re.compile(pattern), make, guessable)
    for g, pattern, make, guessable in (
        (Granularity.MILLISECOND, _SECOND + r"\.([0-9]{1,3})" + _AT, _clock(Granularity.MILLISECOND),
         True),
        (Granularity.SECOND, _SECOND + _AT, _clock(Granularity.SECOND), True),
        (Granularity.MINUTE, _MINUTE + r"(?::([0-9]{2}))?" + _AT, _clock(Granularity.MINUTE),
         True),
        (Granularity.HOUR, _CLOCK + r"(?::([0-9]{2})(?::([0-9]{2}))?)?" + _AT,
         _clock(Granularity.HOUR), False),
        (Granularity.DAY, _DATE, _on_ints(day), True),
        (Granularity.WEEK, r"(-?[0-9]+)\s+W([0-9]{1,2})", _on_ints(week), True),
        (Granularity.QUARTER, r"(-?[0-9]+)\s+Q([1-4])", _on_ints(quarter), True),
        (Granularity.MONTH, r"(-?[0-9]+)-([0-9]{2})", _on_ints(month), True),
        (
            Granularity.MONTH,
            r"(-?[0-9]+)\s+" + _MONTH_NAME,
            lambda zone, y, name: month(int(y), _MONTH_ABBR[name.lower()]),
            True,
        ),
        (Granularity.YEAR, r"(-?[0-9]+)", _on_ints(year), True),
    )
)
_FORMS_OF = {g: tuple((p, make) for h, p, make, _ in _FORMS if h is g) for g in Granularity}

# The fast path for unzoned days and hours: per granularity, a strict ASCII
# shape of the canonical text and a maker that reads it through the stdlib's
# C date code.
# The shape alone decides what reaches that code, which on Python 3.11 and
# later also reads forms the grammar refuses ("20110705", "2011-W27-2", a "Z"
# suffix); an hour is in range by shape, so only an invalid date raises
# ValueError, and then the grammar gives the error.
_YMD = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_EPOCH_NAIVE = datetime(1970, 1, 1)
_ONE_HOUR = timedelta(hours=1)


def _fast_day(text, zone):
    return TimePoint(date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL, Granularity.DAY)


def _fast_hour(text, zone):
    return TimePoint((datetime.fromisoformat(text) - _EPOCH_NAIVE) // _ONE_HOUR, Granularity.HOUR,
                     zone)


_FAST = {
    Granularity.DAY: (re.compile(_YMD).fullmatch, _fast_day),
    Granularity.HOUR: (re.compile(_YMD + " (?:[01][0-9]|2[0-3]):00").fullmatch, _fast_hour),
}


def parse_timepoint(text: str, granularity, zone: str | None = None) -> TimePoint:
    """Parse canonical text at a declared granularity.

    Surrounding whitespace is stripped, and a "T" date-time separator is
    accepted on input.  No text parses as an ordinal point: an ordinal index
    holds ints (see ``_read_json_int``).  Unzoned (None or UTC) text in the
    exact shape of a canonical day or hour (``2011-07-05``,
    ``2011-07-05 17:00``) is read by ``fromisoformat``; the grammar of
    ``_FORMS`` reads all other text and gives every error.  The canonical
    forms:

    >>> parse_timepoint("2011", "year")
    TimePoint('2011', 'year')
    >>> parse_timepoint("2011 Q3", "quarter")
    TimePoint('2011 Q3', 'quarter')
    >>> parse_timepoint("2011-07", "month"), parse_timepoint("2011 Jul", "month")
    (TimePoint('2011-07', 'month'), TimePoint('2011-07', 'month'))
    >>> parse_timepoint("2011 W07", "week"), parse_timepoint("2011-07-05", "day")
    (TimePoint('2011 W07', 'week'), TimePoint('2011-07-05', 'day'))
    >>> parse_timepoint("2011-07-05 17:00", "hour"), parse_timepoint("2011-07-05T17", "hour")
    (TimePoint('2011-07-05 17:00', 'hour'), TimePoint('2011-07-05 17:00', 'hour'))
    >>> parse_timepoint("2011-07-05 22:30", "hour", "Asia/Kolkata")
    TimePoint('2011-07-05 22:30', 'hour')
    >>> parse_timepoint("2011-07-05 17:45", "minute")
    TimePoint('2011-07-05 17:45', 'minute')
    >>> parse_timepoint("2011-07-05 17:45:00", "second")
    TimePoint('2011-07-05 17:45:00', 'second')
    >>> parse_timepoint("2011-07-05 17:45:00.123", "millisecond")
    TimePoint('2011-07-05 17:45:00.123', 'millisecond')
    """
    g = _require_granularity(granularity)
    fast = _FAST.get(g)
    if fast is not None and _is_utc(zone) and fast[0](text):
        try:
            return fast[1](text, zone)
        except ValueError:
            pass  # an invalid date: the grammar says which field
    return _parse_forms(text, g, zone)


def _parse_forms(text: str, g: Granularity, zone: str | None) -> TimePoint:
    """``text`` at granularity ``g`` by the ``_FORMS`` grammar, which words
    every ``parse_timepoint`` error."""
    text = text.strip()
    try:
        for pattern, make in _FORMS_OF[g]:
            m = pattern.fullmatch(text)
            if m:
                return make(zone, *m.groups())
    except ParseError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"cannot parse {text!r} as {g.value}: {exc}") from exc
    raise ParseError(f"cannot parse {text!r} as {g.value}")


def guess_granularity(text: str) -> Granularity | None:
    """Best-effort granularity of a canonical time string: that of the first
    guessable form it matches, or None.

    >>> [guess_granularity(s).value for s in ("2011", "2011 Q3", "2011-07", "2011 Jul",
    ...     "2011 W07", "2011-07-05", "2011-07-05 17:45", "2011-07-05 17:45:00",
    ...     "2011-07-05 17:45:00.123")]
    ['year', 'quarter', 'month', 'month', 'week', 'day', 'minute', 'second', 'millisecond']

    Bare integers guess as years, and "HH:MM" forms as minutes: declare the
    hour granularity when a column is hourly.  Likewise declare the minute
    for a minute column in local mean time, which is written with seconds.

    >>> guess_granularity("2011-07-05 17:00").value, guess_granularity("2011-07-05 17")
    ('minute', None)
    """
    text = text.strip()
    return next((g for g, p, _, guessable in _FORMS if guessable and p.fullmatch(text)), None)
