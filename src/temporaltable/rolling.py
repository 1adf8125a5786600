"""Rolling-window functions: slide, tile, stretch, and friends.

slide moves an overlapping window, tile partitions into blocks, stretch
grows a prefix from a fixed start.  All three apply a caller-supplied pure
function to plain list windows and return a list of results.

One engine serves every entry point: :func:`check_window` turns the
caller's window into a :class:`Window` fit for the op (tile's block size is
``Window(size)``, stretch's prefix is ``Window(init, step)``), and
``_spans`` lists each window as a (start, stop) slice.  The free functions
apply f through ``_roll``; roll_by_key runs the same spans within each key
group of a table, optionally across worker threads.  The typed variants
(``slide_int`` ... ``stretch_text``) check every result against one of the
table's cell kinds.

roll_by_key also takes an aggregate spec in place of f.  Sum, mean and
count then come from exact prefix totals, in O(n) per series whatever the
window size; min, max and quantile, and a series these totals cannot treat
exactly (inf, nan), apply the spec to each sliced window as a callable f
does.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate

from . import aggregates
from .errors import PreconditionError, SchemaError, TypedResultError, UnsupportedOperationError
from .gaps import require_gapless
from .record import Frozen, set_field
from .table import Column, TemporalTable, as_kind, key_groups, with_columns


def ThreadPoolExecutor(max_workers: int):
    """``concurrent.futures.ThreadPoolExecutor``, which only
    ``roll_by_key(workers > 1)`` needs: the first call imports it and puts
    it in this function's place."""
    global ThreadPoolExecutor
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=max_workers)


def _positive_int(n, what: str) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PreconditionError(f"{what} must be a positive integer, got {n!r}")
    return n


class Window(Frozen):
    """Window shape: size, stride between window ends, and partial policy.

    ``partial=False`` (the default) emits complete windows only; with
    ``partial=True`` the growing prefixes of sizes 1..size-1 are emitted
    first.  For stretch, ``size`` is the initial prefix length.
    """

    __slots__ = ("size", "step", "partial")

    def __init__(self, size: int, step: int = 1, partial: bool = False):
        set_field(self, "size", _positive_int(size, "window size"))
        set_field(self, "step", _positive_int(step, "window step"))
        set_field(self, "partial", partial)


_OPS = ("slide", "tile", "stretch")


def check_window(op: str, w) -> Window:
    """``w`` (a :class:`Window` or a size) as a :class:`Window` for ``op``,
    refused when ``op`` would ignore part of it: tile has no step and
    neither tile nor stretch has partial windows."""
    if op not in _OPS:
        raise PreconditionError(f"op must be one of {_OPS}, got {op!r}")
    if not isinstance(w, Window):
        w = Window(w)
    if op == "tile" and w.step != 1:
        raise PreconditionError(f"tile takes no step (its blocks follow each other), got {w.step}")
    if op != "slide" and w.partial:
        raise PreconditionError(f"{op} has no partial windows")
    return w


def _spans(op: str, n: int, w: Window) -> list[tuple[int, int]]:
    """The (start, stop) slice of each window of ``op`` over ``n`` items, in
    output order.  ``w`` must have passed :func:`check_window` for ``op``."""
    if op == "tile":
        return [(a, min(a + w.size, n)) for a in range(0, n, w.size)]
    ends = range(w.size, n + 1, w.step)
    if op == "stretch":
        return [(0, b) for b in ends]
    prefixes = [(0, b) for b in range(1, min(w.size - 1, n) + 1)] if w.partial else []
    return prefixes + [(b - w.size, b) for b in ends]


def _roll(op: str, lists, f, w) -> list:
    """f applied position-wise to the windows of equal-length ``lists``."""
    w = check_window(op, w)
    lists = [list(xs) for xs in lists]
    if not lists:
        raise PreconditionError("pslide needs at least one input sequence")
    lengths = {len(xs) for xs in lists}
    if len(lengths) > 1:
        raise PreconditionError(f"input lengths differ: {sorted(lengths)}")
    return [f(*[xs[a:b] for xs in lists]) for a, b in _spans(op, lengths.pop(), w)]


def slide(xs, f, w) -> list:
    """Apply f to overlapping windows of xs.

    Complete-only output length is max(0, (n - size) // step + 1); a window
    larger than the input yields an empty list, not an error.
    """
    return _roll("slide", [xs], f, w)


def tile(xs, f, size: int) -> list:
    """Apply f to consecutive non-overlapping blocks; the trailing short
    block is passed to f as-is."""
    return _roll("tile", [xs], f, Window(size))


def stretch(xs, f, init: int = 1, step: int = 1) -> list:
    """Apply f to growing prefixes of lengths init, init+step, ... <= n."""
    return _roll("stretch", [xs], f, Window(init, step))


def slide2(xs, ys, f, w) -> list:
    """slide over two equal-length inputs; f sees both windows."""
    return _roll("slide", [xs, ys], f, w)


def pslide(lists, f, w) -> list:
    """slide over any number of equal-length inputs, windows position-wise."""
    return _roll("slide", lists, f, w)


# --- typed variants ---------------------------------------------------------


def _typed(op, kind: str):
    """``op`` with every result checked to be a ``kind`` cell; an int result
    of a real variant widens to float."""

    @functools.wraps(op)
    def typed(*args, **kwargs):
        out = op(*args, **kwargs)
        for pos, v in enumerate(out):
            try:
                out[pos] = as_kind(v, kind)
            except SchemaError:  # a cell of another kind, or no cell at all
                raise TypedResultError(
                    f"window result at position {pos} is {v!r}, not {kind}"
                ) from None
        return out

    typed.__name__ = typed.__qualname__ = f"{op.__name__}_{kind}"
    typed.__doc__ = f"{op.__name__} whose results must all be {kind} cells."
    return typed


_TYPED_KINDS = ("int", "real", "bool", "text")
slide_int, slide_real, slide_bool, slide_text = (_typed(slide, k) for k in _TYPED_KINDS)
tile_int, tile_real, tile_bool, tile_text = (_typed(tile, k) for k in _TYPED_KINDS)
stretch_int, stretch_real, stretch_bool, stretch_text = (_typed(stretch, k) for k in _TYPED_KINDS)


# --- running kernels --------------------------------------------------------
#
# The kernel turns one series ``vals`` and its window spans into the
# results of a named aggregate in O(n) whatever the window size, or returns
# None when the series holds a cell it cannot treat exactly; that series
# then slices every window.


def _sums(name: str, vals: list, spans):
    """Count, sum or mean of the present cells of each span.

    Every finite float is an integer over a power of two, so over one
    common denominator a series sums exactly in ints, and each window is
    the difference of two prefix totals.  Int true division rounds
    correctly, so a window holding a float sums to ``math.fsum`` of its
    cells and means to that sum over their count, bit for bit.  Windows
    of int cells sum to their exact int total.  A series whose absolute
    total reaches 2**1023 (inf, nan, an int too large for a float) is left
    to slicing: below that bound neither these totals nor fsum over any of
    its windows can overflow.
    """
    count = list(accumulate((v is not None for v in vals), initial=0))
    if name == "count":
        return (count[b] - count[a] for a, b in spans)
    try:
        safe = math.fsum(abs(v) for v in vals if v is not None) < 2.0**1023
    except OverflowError:
        safe = False
    if not safe:
        return None
    # fsum reads an int cell as float(cell); so does the float total.
    ratios = [(0, 1) if v is None else float(v).as_integer_ratio() for v in vals]
    scale = max(d for _, d in ratios)
    total = list(accumulate((n * (scale // d) for n, d in ratios), initial=0))
    if name == "mean":
        return (
            (total[b] - total[a]) / scale / (count[b] - count[a]) if count[b] > count[a] else None
            for a, b in spans
        )
    floats = list(accumulate((isinstance(v, float) for v in vals), initial=0))
    ints = list(accumulate((v if isinstance(v, int) else 0 for v in vals), initial=0))
    return (
        None if count[b] == count[a]
        else (total[b] - total[a]) / scale if floats[b] > floats[a]
        else ints[b] - ints[a]
        for a, b in spans
    )


# Aggregates with a running kernel; the others slice every window.
_KERNELS = {"count", "sum", "mean"}


# --- keyed rolling ----------------------------------------------------------


def roll_by_key(
    t: TemporalTable,
    column: str,
    op: str,
    f,
    w,
    as_name: str | None = None,
    workers: int | None = None,
) -> TemporalTable:
    """Run a window op over one column within each key group.

    ``f`` is a function of a window's list of cells, or an aggregate spec
    (``"mean"``, ``"quantile:0.9"``; see :mod:`.aggregates`).  The spec is
    parsed once; sum, mean and count then run from prefix totals in O(n)
    per series whatever the window size, while min, max and quantile, and a
    series holding inf or nan, apply the spec to each sliced window.
    Results equal ``aggregates.apply`` on each window.  A spec's result
    column has the kind :func:`.aggregates.result_kind` declares, whatever
    cells it holds; a callable's gets the kind of its cells, or the rolled
    column's kind when it holds none (no window ends).

    Appends a result column aligned to each window's last row; rows that end
    no window hold a missing marker.  The table must be gap-free: rolling
    assumes an intact, time-ordered series, so gappy tables are refused with
    a pointer to fill_gaps.  ``workers`` > 1 rolls the key groups in a
    thread pool; f must be pure, and the output is identical either way.
    """
    w = check_window(op, w)
    if workers is not None:
        _positive_int(workers, "workers")
    if column not in t.columns:
        raise SchemaError(f"no column named {column!r}")
    if t.kind_of(column) not in ("int", "real"):
        raise PreconditionError(f"column {column!r} is not numeric")
    if t.interval.form == "irregular":
        raise UnsupportedOperationError(
            "rolling over an irregular table is not meaningful; "
            "aggregate it to a regular interval first"
        )
    kernel, kind = None, None
    if isinstance(f, str):
        agg = aggregates.parse_spec(f)[0]
        kind = aggregates.result_kind(agg, t.kind_of(column))
        if agg in _KERNELS:
            kernel = functools.partial(_sums, agg)
        f = functools.partial(aggregates.apply, f)
    t = t.canonical()
    require_gapless(t)

    groups = key_groups(t)
    values = t.columns[column].values

    def one_group(r: range) -> list:
        vals = values[r.start : r.stop]
        out = [None] * len(vals)
        spans = _spans(op, len(vals), w)
        results = kernel(vals, spans) if kernel else None
        if results is None:
            for a, b in spans:
                out[b - 1] = f(vals[a:b])
        else:
            for (_, b), v in zip(spans, results):
                out[b - 1] = v
        return out

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_group, (r for _, r in groups)))
    else:
        parts = [one_group(r) for _, r in groups]

    rolled: list = []
    for part in parts:
        rolled.extend(part)

    name = as_name or f"{column}_{op}"
    if name in t.columns:
        raise SchemaError(f"column {name!r} already exists; pass as_name")
    if kind is None and rolled.count(None) == len(rolled):
        kind = t.kind_of(column)
    return with_columns(t, {**t.columns, name: rolled if kind is None else Column(kind, rolled)})
