"""Time granularities and their coarseness order.

Calendar granularities form a total coarseness order from year down to
millisecond.  The ordinal granularity (plain integer ticks, e.g. simulation
steps) is incomparable to the calendar kinds.
"""

from __future__ import annotations

from enum import Enum


class Granularity(Enum):
    YEAR = "year"
    QUARTER = "quarter"
    MONTH = "month"
    WEEK = "week"
    DAY = "day"
    HOUR = "hour"
    MINUTE = "minute"
    SECOND = "second"
    MILLISECOND = "millisecond"
    ORDINAL = "ordinal"

    # Members are singletons that compare by identity, so they hash by it
    # too, in C, not through Enum's Python-level hash of the name.
    __hash__ = object.__hash__

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Granularity.{self.name}"

    @property
    def is_subdaily(self) -> bool:
        return self in _SUBDAILY


# Coarsest first.  Week sits between month and day: a week never aligns with
# month boundaries, but it is still finer than a month for flooring purposes.
_COARSENESS = (
    Granularity.YEAR,
    Granularity.QUARTER,
    Granularity.MONTH,
    Granularity.WEEK,
    Granularity.DAY,
    Granularity.HOUR,
    Granularity.MINUTE,
    Granularity.SECOND,
    Granularity.MILLISECOND,
)

_RANK = {g: i for i, g in enumerate(_COARSENESS)}

_SUBDAILY = frozenset(
    {Granularity.HOUR, Granularity.MINUTE, Granularity.SECOND, Granularity.MILLISECOND}
)

# Shorthand letters used in interval renderings such as "[1Y]" and "[30m]".
# Ordinal intervals render with no letter at all ("[1]").
UNIT_LETTERS = {
    Granularity.YEAR: "Y",
    Granularity.QUARTER: "Q",
    Granularity.MONTH: "M",
    Granularity.WEEK: "W",
    Granularity.DAY: "D",
    Granularity.HOUR: "h",
    Granularity.MINUTE: "m",
    Granularity.SECOND: "s",
    Granularity.MILLISECOND: "ms",
    Granularity.ORDINAL: "",
}

# Milliseconds per tick for the sub-daily granularities.
MS_PER_TICK = {
    Granularity.HOUR: 3_600_000,
    Granularity.MINUTE: 60_000,
    Granularity.SECOND: 1_000,
    Granularity.MILLISECOND: 1,
}


def coarser_or_equal(a: Granularity, b: Granularity) -> bool:
    """True if calendar granularity ``a`` is coarser than or equal to ``b``.

    Its callers hold calendar granularities only: no TimePoint is ordinal,
    and an ordinal window or index is refused before any comparison.
    """
    return _RANK[a] <= _RANK[b]

