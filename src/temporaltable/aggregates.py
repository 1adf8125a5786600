"""The fixed aggregation vocabulary: sum, mean, min, max, count, quantile:p.

Shared by summarize, the gap-fill policies, and roll_by_key (which runs
sum, mean and count from prefix totals over its windows, with the same
results).  Aggregates skip missing cells.  An empty pool yields a missing
result, except count, which yields 0.  A sum over a float cell is
``math.fsum``, the correctly rounded sum; a sum of int cells is their exact
int total.
"""

from __future__ import annotations

import math

from .errors import SchemaError

NAMES = ("sum", "mean", "min", "max", "count", "quantile")

# sum/mean/quantile need numeric cells; min/max work on any ordered kind.
_NUMERIC_ONLY = {"sum", "mean", "quantile"}


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


def result_kind(name: str, input_kind: str) -> str:
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


def _numeric(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def apply(spec: str, values) -> object:
    """Apply an aggregate spec to a sequence of cells, skipping missing ones."""
    name, p = parse_spec(spec)
    pool = [v for v in values if v is not None]
    if name == "count":
        return len(pool)
    if not pool:
        return None
    if name in _NUMERIC_ONLY and not all(_numeric(v) for v in pool):
        raise SchemaError(f"{name} needs numeric cells")
    if name == "sum":
        if any(isinstance(v, float) for v in pool):
            try:
                return math.fsum(pool)
            except (OverflowError, ValueError):  # overflow on the way, or inf and -inf
                pass
        return sum(pool)
    if name == "mean":
        return math.fsum(pool) / len(pool)
    if name == "min":
        return min(pool)
    if name == "max":
        return max(pool)
    return quantile(pool, p)
