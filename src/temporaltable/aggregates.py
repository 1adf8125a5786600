"""The fixed aggregation vocabulary: sum, mean, min, max, count, quantile:p.

Shared by summarize, the gap-fill policies, and roll_by_key (which runs
sum, mean and count from prefix totals over its windows, with the same
results).  Aggregates skip missing cells.  An empty pool yields a missing
result, except count, which yields 0.  A sum over a float cell is
``math.fsum``, the correctly rounded sum; a sum of int cells is their exact
int total.  A mean is ``math.fsum`` of the cells over their count, as in
``statistics.fmean``.  Where fsum fails, both use builtin ``sum`` instead
(``[inf, -inf]`` gives nan).  A sum, mean or quantile of int cells too
large for a float raises :class:`~temporaltable.errors.PreconditionError`.
A pool holding a NaN gives nan for every aggregate but count, wherever the
NaN sits.

Sum, mean and quantile need numeric cells: ints and floats, their
subclasses included, but not bools, which raise
:class:`~temporaltable.errors.SchemaError`.  A pool is checked by its set
of cell types, one pass with no per-cell ``isinstance``; the same set says
whether a cell is missing and whether a sum holds a float.
"""

from __future__ import annotations

import math
import operator

from .errors import PreconditionError, SchemaError

NAMES = ("sum", "mean", "min", "max", "count", "quantile")
_NUMERIC = ("sum", "mean", "quantile")


class Aggregate:
    """Marks a fill policy as a per-key aggregate rather than a constant.

    ``fill_gaps(t, fills={"count": Aggregate("mean")})`` fills the gap rows
    of each key with the mean of that key's observed counts.
    """

    def __init__(self, spec: str):
        parse_spec(spec)
        self.spec = spec

    def __repr__(self):
        return f"Aggregate({self.spec!r})"


def parse_spec(spec: str) -> tuple[str, float | None]:
    """Split an aggregate spec into (name, quantile probability)."""
    if not isinstance(spec, str):
        raise SchemaError(f"aggregate spec must be text, got {spec!r}")
    name, sep, arg = spec.partition(":")
    if name == "quantile":
        if not sep:
            raise SchemaError("quantile needs a probability, e.g. quantile:0.5")
        try:
            p = float(arg)
        except ValueError:
            raise SchemaError(f"bad quantile probability {arg!r}") from None
        if not 0.0 <= p <= 1.0:
            raise SchemaError(f"quantile probability {p} outside [0, 1]")
        return name, p
    if sep or name not in NAMES:
        raise SchemaError(
            f"unknown aggregate {spec!r}; expected one of "
            "sum, mean, min, max, count, quantile:p"
        )
    return name, None


def result_kind(name: str, input_kind: str | None) -> str | None:
    """Kind of the column that aggregate ``name`` makes from a column of
    ``input_kind``, declared for the whole column whatever cells it holds."""
    if name == "count":
        return "int"
    if name in ("mean", "quantile"):
        return "real"
    return input_kind


def quantile(values, p: float) -> float:
    """Linearly interpolated quantile of a non-empty numeric sequence."""
    s = sorted(values)
    h = (len(s) - 1) * p
    lo = int(h)
    frac = h - lo
    if frac == 0.0:
        return float(s[lo])
    return s[lo] + frac * (s[lo + 1] - s[lo])


def _fsum(pool: list):
    """``math.fsum`` of the cells, or builtin ``sum`` where fsum fails."""
    try:
        return math.fsum(pool)
    except (OverflowError, ValueError):  # overflow on the way, or inf and -inf
        return sum(pool)


def apply(spec: str, values) -> object:
    """Apply an aggregate spec to an iterable of cells, read once, skipping missing ones."""
    name, p = parse_spec(spec)
    pool = list(values)
    types = set(map(type, pool))
    if type(None) in types:
        types.discard(type(None))
        pool = [v for v in pool if v is not None]
    if name == "count":
        return len(pool)
    if not pool:
        return None
    # sum, mean and quantile need numeric cells; min and max take any
    # ordered kind.  For a type, issubclass answers what isinstance would
    # for each of its cells, so the set of types settles both questions.
    has_float = False
    for ty in types:
        if issubclass(ty, float):
            has_float = True
        elif name in _NUMERIC and (ty is bool or not issubclass(ty, int)):
            raise SchemaError(f"{name} needs numeric cells")
    # NaN compares false with every cell, so where it sits would decide
    # what min, max and sorting give (fsum gives sum and mean nan anyway);
    # only a float cell can be NaN.
    if has_float and name not in ("sum", "mean") and any(map(operator.ne, pool, pool)):
        return math.nan
    if name == "min":
        return min(pool)
    if name == "max":
        return max(pool)
    try:
        if name == "sum":
            return _fsum(pool) if has_float else sum(pool)
        if name == "mean":
            return _fsum(pool) / len(pool)
        return quantile(pool, p)
    except OverflowError:  # an int too large for a float
        raise PreconditionError(f"{name} of these cells does not fit a float") from None
