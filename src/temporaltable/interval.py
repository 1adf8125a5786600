"""Interval representation and GCD-based inference.

A regular interval is a positive multiple of one granularity unit, computed
by :func:`infer_from_ticks`, the one inference function, as the greatest
common divisor of all consecutive within-key tick differences.  Irregular
spacing is a user declaration, never inferred, and a table's interval is
the one record of it; an unknown interval means no key holds two distinct
index values.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

from .errors import PreconditionError
from .granularity import UNIT_LETTERS, Granularity
from .record import Frozen, set_field


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


def infer_from_ticks(
    tick_groups: Iterable[Sequence[int]],
    granularity: Granularity | None,
    regular: bool,
    unit_label: str | None = None,
) -> Interval:
    """Interval from per-key tick sequences (each sorted ascending, distinct);
    irregular when ``regular`` is false, whatever the spacing."""
    if not regular:
        return Interval.irregular()
    diffs = []
    for ticks in tick_groups:
        diffs.extend(map(operator.sub, ticks[1:], ticks))
    if not diffs:
        return Interval.unknown()
    if min(diffs) <= 0:
        raise PreconditionError("index ticks must be sorted ascending and distinct")
    return Interval.regular(granularity, math.gcd(*diffs), unit_label)

