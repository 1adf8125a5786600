"""Rolling-window functions: slide, tile, stretch, and friends.

slide moves an overlapping window, tile partitions into blocks, stretch
grows a prefix from a fixed start.  All three apply a caller-supplied pure
function to plain list windows and return a list of results.  The typed
variants additionally pin the result cell kind.  roll_by_key runs a window
op within each key group of a table, optionally across worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import PreconditionError, SchemaError, TypedResultError, UnsupportedOperationError
from .gaps import require_gapless
from .table import TemporalTable, key_groups, with_columns


def _positive_int(n, what: str) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PreconditionError(f"{what} must be a positive integer, got {n!r}")
    return n


@dataclass(frozen=True)
class Window:
    """Window shape: size, stride between window ends, and partial policy.

    ``partial=False`` (the default) emits complete windows only; with
    ``partial=True`` the growing prefixes of sizes 1..size-1 are emitted
    first.  For stretch, ``size`` is the initial prefix length.
    """

    size: int
    step: int = 1
    partial: bool = False

    def __post_init__(self):
        _positive_int(self.size, "window size")
        _positive_int(self.step, "window step")


def _as_window(w) -> Window:
    if isinstance(w, Window):
        return w
    return Window(_positive_int(w, "window size"))


def _slide_spans(n: int, w: Window) -> list[tuple[int, int]]:
    spans = []
    if w.partial:
        for s in range(1, min(w.size - 1, n) + 1):
            spans.append((0, s))
    end = w.size
    while end <= n:
        spans.append((end - w.size, end))
        end += w.step
    return spans


def _tile_spans(n: int, size: int) -> list[tuple[int, int]]:
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def _stretch_spans(n: int, init: int, step: int) -> list[tuple[int, int]]:
    return [(0, end) for end in range(init, n + 1, step)]


def slide(xs, f, w) -> list:
    """Apply f to overlapping windows of xs.

    Complete-only output length is max(0, (n - size) // step + 1); a window
    larger than the input yields an empty list, not an error.
    """
    w = _as_window(w)
    xs = list(xs)
    return [f(xs[a:b]) for a, b in _slide_spans(len(xs), w)]


def tile(xs, f, size: int) -> list:
    """Apply f to consecutive non-overlapping blocks; the trailing short
    block is passed to f as-is."""
    size = _positive_int(size, "tile size")
    xs = list(xs)
    return [f(xs[a:b]) for a, b in _tile_spans(len(xs), size)]


def stretch(xs, f, init: int = 1, step: int = 1) -> list:
    """Apply f to growing prefixes of lengths init, init+step, ... <= n."""
    init = _positive_int(init, "initial length")
    step = _positive_int(step, "stretch step")
    xs = list(xs)
    return [f(xs[a:b]) for a, b in _stretch_spans(len(xs), init, step)]


def slide2(xs, ys, f, w) -> list:
    """slide over two equal-length inputs; f sees both windows."""
    return pslide([xs, ys], f, w)


def pslide(lists, f, w) -> list:
    """slide over any number of equal-length inputs, windows position-wise."""
    w = _as_window(w)
    lists = [list(xs) for xs in lists]
    if not lists:
        raise PreconditionError("pslide needs at least one input sequence")
    lengths = {len(xs) for xs in lists}
    if len(lengths) > 1:
        raise PreconditionError(f"input lengths differ: {sorted(lengths)}")
    n = lengths.pop()
    return [f(*(xs[a:b] for xs in lists)) for a, b in _slide_spans(n, w)]


# --- typed variants ---------------------------------------------------------


def _coerced(kind: str, out: list) -> list:
    checked = []
    for pos, v in enumerate(out):
        ok = False
        if kind == "bool":
            ok = isinstance(v, bool)
        elif kind == "int":
            ok = isinstance(v, int) and not isinstance(v, bool)
        elif kind == "real":
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                v = float(v)
                ok = True
        elif kind == "text":
            ok = isinstance(v, str)
        if not ok:
            raise TypedResultError(
                f"window result at position {pos} is {v!r}, not {kind}"
            )
        checked.append(v)
    return checked


def slide_int(xs, f, w):
    return _coerced("int", slide(xs, f, w))


def slide_real(xs, f, w):
    return _coerced("real", slide(xs, f, w))


def slide_bool(xs, f, w):
    return _coerced("bool", slide(xs, f, w))


def slide_text(xs, f, w):
    return _coerced("text", slide(xs, f, w))


def tile_int(xs, f, size):
    return _coerced("int", tile(xs, f, size))


def tile_real(xs, f, size):
    return _coerced("real", tile(xs, f, size))


def tile_bool(xs, f, size):
    return _coerced("bool", tile(xs, f, size))


def tile_text(xs, f, size):
    return _coerced("text", tile(xs, f, size))


def stretch_int(xs, f, init=1, step=1):
    return _coerced("int", stretch(xs, f, init, step))


def stretch_real(xs, f, init=1, step=1):
    return _coerced("real", stretch(xs, f, init, step))


def stretch_bool(xs, f, init=1, step=1):
    return _coerced("bool", stretch(xs, f, init, step))


def stretch_text(xs, f, init=1, step=1):
    return _coerced("text", stretch(xs, f, init, step))


# --- keyed rolling ----------------------------------------------------------

_OPS = ("slide", "tile", "stretch")


def check_window(op: str, w) -> Window:
    """``w`` as a :class:`Window` for ``op``, refused when ``op`` would ignore
    part of it: tile has no step and neither tile nor stretch has partial
    windows."""
    if op not in _OPS:
        raise PreconditionError(f"op must be one of {_OPS}, got {op!r}")
    w = _as_window(w)
    if op == "tile" and w.step != 1:
        raise PreconditionError(f"tile takes no step (its blocks follow each other), got {w.step}")
    if op != "slide" and w.partial:
        raise PreconditionError(f"{op} has no partial windows")
    return w


def _spans_for(op: str, n: int, w: Window) -> list[tuple[int, int]]:
    if op == "slide":
        return _slide_spans(n, w)
    if op == "tile":
        return _tile_spans(n, w.size)
    return _stretch_spans(n, w.size, w.step)


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
    t = t.canonical()
    require_gapless(t)

    groups = key_groups(t)
    values = t.columns[column].values

    def one_group(r: range) -> list:
        vals = values[r.start : r.stop]
        out = [None] * len(vals)
        for a, b in _spans_for(op, len(vals), w):
            out[b - 1] = f(vals[a:b])
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
    return with_columns(t, {**t.columns, name: rolled})
