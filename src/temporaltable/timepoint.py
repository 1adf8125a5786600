"""Time points as integer ticks at a named granularity.

A :class:`TimePoint` stores a signed tick count since the Unix epoch
(1970-01-01 00:00:00 UTC) at its granularity: years since 1970, months since
1970-01, days since 1970-01-01, seconds since the epoch instant, and so on.
Weeks are ISO weeks starting Monday; week 0 is the week containing the epoch.
Integer ticks keep interval arithmetic exact, which the GCD-based interval
inference relies on.

Sub-daily ticks are UTC instants.  An optional zone label changes how a point
renders and how it floors to day-or-coarser granularities; it never changes
the stored ticks.
"""

from __future__ import annotations

import re
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
        return f"TimePoint({self.render()!r}, {self.granularity.value!r})"

    def render(self) -> str:
        return render_timepoint(self)

    def floor_to(self, g: Granularity) -> "TimePoint":
        return floor_to(self, g)

    @staticmethod
    def parse(text: str, granularity, zone: str | None = None) -> "TimePoint":
        return parse_timepoint(text, granularity, zone)


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


def _ticks_from_civil(g: Granularity, zone: str | None, y, mo=1, d=1, h=0, mi=0, s=0, ms=0) -> int:
    """Encode a civil time at a sub-daily granularity; must align exactly."""
    try:
        if _is_utc(zone):
            # No offset to apply: whole days from the date's ordinal.  date()
            # and time() check the fields as datetime() does, in the same
            # order and with the same errors.
            days = date(y, mo, d).toordinal() - _EPOCH_ORDINAL
            time(h, mi, s, ms * 1000)
            total_ms = (((days * 24 + h) * 60 + mi) * 60 + s) * 1000 + ms
        else:
            local = datetime(y, mo, d, h, mi, s, ms * 1000, tzinfo=_tzinfo(zone))
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
    if g is Granularity.ORDINAL:
        raise ConversionError("ordinal ticks have no calendar date")
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


def ordinal(n: int) -> TimePoint:
    return TimePoint(n, Granularity.ORDINAL)


# --- flooring --------------------------------------------------------------

def floor_to(t: TimePoint, g) -> TimePoint:
    """The TimePoint at granularity ``g`` containing ``t``.

    ``g`` must be coarser than or equal to ``t.granularity``.  Sub-daily to
    sub-daily flooring is exact division on UTC ticks; flooring into a
    day-or-coarser granularity goes through the zone-local civil date.
    Ordinal points only floor to themselves.
    """
    g = _require_granularity(g)
    if t.granularity is Granularity.ORDINAL or g is Granularity.ORDINAL:
        if t.granularity is g:
            return t
        raise ConversionError(
            f"cannot floor {t.granularity.value} to {g.value}: ordinal and "
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
    if g is Granularity.ORDINAL:
        return str(tp.ticks)
    if g is Granularity.YEAR:
        return str(1970 + tp.ticks)
    if g is Granularity.QUARTER:
        y, q = divmod(tp.ticks, 4)
        return f"{1970 + y} Q{q + 1}"
    if g is Granularity.MONTH:
        y, m = divmod(tp.ticks, 12)
        return f"{1970 + y}-{m + 1:02d}"
    if g is Granularity.WEEK:
        monday = _date_from_ticks(tp.ticks, g)
        iso = monday.isocalendar()
        return f"{iso[0]} W{iso[1]:02d}"
    if g is Granularity.DAY:
        d = _date_from_ticks(tp.ticks, g)
        return f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
    days, ms = divmod(tp.ticks * MS_PER_TICK[g], _MS_PER_DAY)
    days += _EPOCH_ORDINAL
    if _is_utc(tp.zone) and 1 <= days <= _MAX_ORDINAL:
        # No offset to apply: the date from its ordinal, the clock by divmod.
        c = date.fromordinal(days)
        minutes, ms = divmod(ms, 60_000)
        hh, mm = divmod(minutes, 60)
        ss, ms = divmod(ms, 1000)
    else:
        c = _civil_datetime(tp)
        hh, mm, ss, ms = c.hour, c.minute, c.second, c.microsecond // 1000
    base = f"{c.year:04d}-{c.month:02d}-{c.day:02d} {hh:02d}:{mm:02d}"
    if g is Granularity.HOUR or g is Granularity.MINUTE:
        return base
    base += f":{ss:02d}"
    if g is Granularity.SECOND:
        return base
    return base + f".{ms:03d}"


# --- parsing ---------------------------------------------------------------

# A JSON int (RFC 8259 section 6): the text of an ordinal index value, and
# of an int cell in CSV.
JSON_INT = r"-?(?:0|[1-9][0-9]*)"

# Digits are ASCII: ``\d`` would take any Unicode decimal digit.
_DATE = r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
_CLOCK = _DATE + r"[ T]([0-9]{2})"
_MINUTE = _CLOCK + r":([0-9]{2})"
_SECOND = _MINUTE + r":([0-9]{2})"
# Month names are ASCII in any case ("a" keeps "ſ", U+017F, from folding to "s").
_MONTH_NAME = "((?ai:" + "|".join(_MONTH_ABBR) + "))"


def _on_ints(factory, zoned=False):
    """A form's maker: ``factory`` over the match's groups read as ints,
    and over the zone too when ``zoned``."""
    if zoned:
        return lambda zone, *fields: factory(*map(int, fields), zone=zone)
    return lambda zone, *fields: factory(*map(int, fields))


def _hour(zone, *fields):
    # Minutes other than the zone's offset (Kolkata's hours are at :30) do
    # not align to whole hours, and _ticks_from_civil refuses them.
    *clock, mi = fields
    ticks = _ticks_from_civil(Granularity.HOUR, zone, *map(int, clock), int(mi or 0))
    return TimePoint(ticks, Granularity.HOUR, zone)


def _millisecond(zone, *fields):
    *clock, ms = fields
    return millisecond(*map(int, clock), int(ms.ljust(3, "0")), zone=zone)


# The text forms, in guessing order: (granularity, pattern matched whole,
# maker of the point from the zone and the match's groups, guessable).
# Parsing tries the rows of its granularity; guessing takes the first
# guessable row that matches.  Hour and ordinal are never guessed.
_FORMS = tuple(
    (g, re.compile(pattern), make, guessable)
    for g, pattern, make, guessable in (
        (Granularity.MILLISECOND, _SECOND + r"\.([0-9]{1,3})", _millisecond, True),
        (Granularity.SECOND, _SECOND, _on_ints(second, zoned=True), True),
        (Granularity.MINUTE, _MINUTE, _on_ints(minute, zoned=True), True),
        (Granularity.HOUR, _CLOCK + r"(?::([0-9]{2}))?", _hour, False),
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
        (Granularity.ORDINAL, "(" + JSON_INT + ")", _on_ints(ordinal), False),
    )
)
_FORMS_OF = {g: tuple((p, make) for h, p, make, _ in _FORMS if h is g) for g in Granularity}


def parse_timepoint(text: str, granularity, zone: str | None = None) -> TimePoint:
    """Parse canonical text at a declared granularity.

    Surrounding whitespace is stripped, and a "T" date-time separator is
    accepted on input.  Ordinal values are JSON ints.  The canonical forms:

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
    >>> parse_timepoint("-42", "ordinal")
    TimePoint('-42', 'ordinal')
    >>> parse_timepoint("007", "ordinal")
    Traceback (most recent call last):
    ...
    temporaltable.errors.ParseError: cannot parse '007' as ordinal
    """
    g = _require_granularity(granularity)
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
    hour granularity when a column is hourly.

    >>> guess_granularity("2011-07-05 17:00").value, guess_granularity("2011-07-05 17")
    ('minute', None)
    """
    text = text.strip()
    return next((g for g, p, _, guessable in _FORMS if guessable and p.fullmatch(text)), None)
