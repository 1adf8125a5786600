"""Interval representation and GCD-based inference.

A regular interval is a positive multiple of one granularity unit, computed
as the greatest common divisor of all consecutive within-key tick
differences.  Irregular spacing is a user declaration, never inferred; an
unknown interval means no key holds two distinct index values.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

from .errors import PreconditionError, SchemaError
from .granularity import UNIT_LETTERS, Granularity
from .record import Frozen, set_field
from .timepoint import TimePoint


class Interval(Frozen):
    __slots__ = ("form", "unit", "multiple", "unit_label")

    def __init__(
        self,
        form: str,  # "regular" | "irregular" | "unknown"
        unit: Granularity | None = None,
        multiple: int | None = None,
        unit_label: str | None = None,  # adapter-supplied rendering token
    ):
        set_field(self, "form", form)
        set_field(self, "unit", unit)
        set_field(self, "multiple", multiple)
        set_field(self, "unit_label", unit_label)

    @classmethod
    def regular(cls, unit: Granularity, multiple: int, unit_label: str | None = None):
        if multiple < 1:
            raise PreconditionError(f"interval multiple must be >= 1, got {multiple}")
        return cls("regular", unit, multiple, unit_label)

    @classmethod
    def irregular(cls):
        return cls("irregular")

    @classmethod
    def unknown(cls):
        return cls("unknown")

    @property
    def is_regular(self) -> bool:
        return self.form == "regular"

    def shorthand(self) -> str:
        """Bracketed display form: "[1Y]", "[30m]", "[!]" or "[?]"."""
        if self.form == "irregular":
            return "[!]"
        if self.form == "unknown":
            return "[?]"
        letter = self.unit_label if self.unit_label is not None else UNIT_LETTERS[self.unit]
        return f"[{self.multiple}{letter}]"

    def __str__(self):
        return self.shorthand()


def gcd_of_diffs(diffs: Sequence[int]) -> int:
    """GCD of a non-empty list of positive integer differences."""
    if not diffs:
        raise PreconditionError("gcd_of_diffs requires at least one difference")
    for d in diffs:
        if not isinstance(d, int) or isinstance(d, bool) or d <= 0:
            raise PreconditionError(f"differences must be positive integers, got {d!r}")
    return math.gcd(*diffs)


def infer_from_ticks(
    tick_groups: Iterable[Sequence[int]],
    granularity: Granularity | None,
    regular: bool,
    unit_label: str | None = None,
) -> Interval:
    """Interval from per-key tick sequences (each sorted ascending, distinct)."""
    if not regular:
        return Interval.irregular()
    diffs = []
    for ticks in tick_groups:
        diffs.extend(map(operator.sub, ticks[1:], ticks))
    if not diffs:
        return Interval.unknown()
    if min(diffs) <= 0:
        raise PreconditionError("index ticks must be sorted ascending and distinct")
    # Ticks are ints, so their differences need none of gcd_of_diffs' checks.
    return Interval.regular(granularity, math.gcd(*diffs), unit_label)


def infer_interval(
    series: Iterable[Sequence[TimePoint]], declared_regular: bool = True
) -> Interval:
    """Infer the table interval from the index cells of each series.

    Pools consecutive differences across all keys and takes their GCD, on the
    assumption that one table carries one interval.  With ``declared_regular``
    false the result is irregular regardless of spacing.
    """
    groups = [list(vals) for vals in series]
    grans = {tp.granularity for vals in groups for tp in vals}
    if len(grans) > 1:
        names = ", ".join(sorted(g.value for g in grans))
        raise SchemaError(f"mixed index granularities across keys: {names}")
    granularity = next(iter(grans)) if grans else None
    tick_groups = [[tp.ticks for tp in vals] for vals in groups]
    return infer_from_ticks(tick_groups, granularity, declared_regular)
