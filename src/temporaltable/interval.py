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
from collections.abc import Sequence

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
    ticks: Sequence[int],
    ends: Sequence[int],
    granularity: Granularity | None,
    unit_label: str | None = None,
) -> Interval:
    """Interval of the series that the flat ``ticks`` hold, each ending at
    the matching exclusive offset of ``ends``: the offsets ascend, the last
    is ``len(ticks)``, and each series is sorted ascending and distinct.
    Never irregular: that is only declared, and a table that declares it
    keeps it without asking here (``table._infer_for``).

    One pass takes the step between every two neighbouring ticks, blanks
    the step across each series end, and takes the greatest common divisor
    of the distinct steps left.

    >>> infer_from_ticks([0, 2, 6, 11, 15], [3, 5], Granularity.DAY).shorthand()
    '[2D]'
    >>> infer_from_ticks([4, 9], [1, 2], Granularity.DAY).shorthand()
    '[?]'
    """
    steps = list(map(operator.sub, ticks[1:], ticks))
    for end in ends:
        # An empty series repeats the end before it; the last end has no
        # step after it.
        if 0 < end <= len(steps):
            steps[end - 1] = None
    steps = set(steps)
    steps.discard(None)
    if not steps:
        return Interval.unknown()
    if min(steps) <= 0:
        raise PreconditionError("index ticks must be sorted ascending and distinct")
    return Interval.regular(granularity, math.gcd(*steps), unit_label)
