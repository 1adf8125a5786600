"""The row layer against per-row reference versions.

``rows_at``, ``take``, ``key_groups``, ``filter_index``, semi and anti
``join`` and the index that ``index_by``/``summarize`` derive move or read
rows with C iterators.  Each reference below is the plain comprehension
over rows that states the same result one row at a time.
"""

from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from temporaltable import (
    MissingIndexError,
    build,
    filter_index,
    index_by,
    join,
    key_groups,
    summarize,
)
from temporaltable.table import _contiguous_groups, rows_at, take, validate_table
from temporaltable.verbs import _derived_index

# How the key cells are drawn: freely, all in one series, or one series per row.
_SHAPES = ("any", "one series", "own series")


@st.composite
def _tables(draw, shape=None):
    """A built table with an int index ``t``, 0 to 2 key columns and a
    value column ``v``."""
    shape = shape or draw(st.sampled_from(_SHAPES))
    nkeys = draw(st.integers(0 if shape != "own series" else 1, 2))
    key = tuple(f"k{j}" for j in range(nkeys))
    cell = st.none() | st.integers(0, 3) if shape == "any" else st.just("a")
    rows = draw(st.lists(st.tuples(st.integers(-4, 12), *[cell] * nkeys), max_size=16))
    if shape == "own series":
        rows = [(tk, i, *cells[1:]) for i, (tk, *cells) in enumerate(rows)]
    rows = list({(tuple(cells), tk): (tk, *cells) for tk, *cells in rows}.values())
    raw = {"t": [r[0] for r in rows]}
    raw.update((k, [r[j + 1] for r in rows]) for j, k in enumerate(key))
    raw["v"] = draw(st.lists(st.none() | st.integers(), min_size=len(rows), max_size=len(rows)))
    return build(raw, "t", key)


def _cells(t):
    return {name: t.column(name) for name in t.column_names}


@settings(max_examples=200, deadline=None)
@given(_tables(), st.data())
def test_rows_at_matches_a_per_row_gather(t, data):
    # 0, 1, 2 and n positions, any of them repeated.
    n = t.nrows
    size = data.draw(st.sampled_from([0, 1, 2, 2 * n + 1])) if n else 0
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)) if n else []
    out = rows_at(t, rows)
    assert _cells(out) == {name: [values[i] for i in rows] for name, values in _cells(t).items()}
    assert out.ticks() == [t.ticks()[i] for i in rows]
    assert out.schema == t.schema and out.interval == t.interval and out._ends is None


def test_rows_at_repeats_rows_as_gather_does():
    t = build({"t": [1, 2], "k": ["x", "y"], "v": [10, 20]}, "t", ["k"])
    out = rows_at(t, [0, 0, 1, 1])
    assert _cells(out) == {"t": [1, 1, 2, 2], "k": ["x", "x", "y", "y"], "v": [10, 10, 20, 20]}
    assert (rows_at(t, [1]).column("v"), rows_at(t, []).column("v")) == ([20], [])


@settings(max_examples=200, deadline=None)
@given(_tables(), st.data())
def test_take_matches_per_row_references(t, data):
    n = t.nrows
    keep = [i for i, k in enumerate(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))) if k]
    out = take(t, keep)
    validate_table(out)
    assert _cells(out) == {name: [values[i] for i in keep] for name, values in _cells(t).items()}
    cut = [bisect_left(keep, end) for end in t._ends]
    assert out._ends == [b for a, b in zip([0, *cut], cut) if b > a]


def _key_groups_reference(t):
    key_columns = [t.column(k) for k in t.key]
    return [
        (tuple(values[b - 1] for values in key_columns), range(a, b))
        for a, b in zip([0, *t._ends], t._ends)
    ]


@settings(max_examples=200, deadline=None)
@given(_tables())
@example(build({"t": [], "v": []}, "t"))
@example(build({"t": [], "k": [], "v": []}, "t", ["k"]))
@example(build({"t": [3, 1], "v": [1, 2]}, "t"))
@example(build({"t": [1, 2, 3], "k": ["a", "a", "a"], "v": [1, 2, 3]}, "t", ["k"]))
@example(build({"t": [1, 1, 1], "k": [3, 2, 1], "v": [1, 2, 3]}, "t", ["k"]))
def test_key_groups_matches_per_series_reference(t):
    groups = key_groups(t)
    assert repr(groups) == repr(_key_groups_reference(t))
    assert repr(groups) == repr(_contiguous_groups(t.columns, t.key, t.nrows))


@pytest.mark.parametrize("shape", _SHAPES)
def test_key_groups_of_each_shape(shape):
    @settings(max_examples=50, deadline=None)
    @given(_tables(shape))
    def check(t):
        groups = key_groups(t)
        assert repr(groups) == repr(_key_groups_reference(t))
        if shape == "one series" or not t.key:
            assert len(groups) == min(t.nrows, 1)
        elif shape == "own series":
            assert len(groups) == t.nrows

    check()


@settings(max_examples=200, deadline=None)
@given(_tables(), st.integers(-5, 13), st.integers(-5, 13), st.sampled_from(["both", "from", "to"]))
def test_filter_index_matches_a_per_row_mask(t, lo, hi, sides):
    if not t.nrows:
        return
    expr = {"both": f"{lo} ~ {hi}", "from": f"{lo} ~", "to": f"~ {hi}"}[sides]
    lo = lo if sides != "to" else -100
    hi = hi if sides != "from" else 100
    out = filter_index(t, expr).table
    assert _cells(out) == _cells(take(t, [i for i, tk in enumerate(t.ticks()) if lo <= tk <= hi]))


@settings(max_examples=200, deadline=None)
@given(_tables(), st.lists(st.none() | st.integers() | st.just(float("nan")), max_size=6),
       st.sampled_from(["semi", "anti"]))
def test_semi_and_anti_join_match_a_per_row_mask(t, right_cells, kind):
    out = join(t, {"v": right_cells}, kind, by=["v"]).table
    # Missing cells match missing cells; NaN matches nothing.
    matches = {v for v in right_cells if v == v or v is None}
    want = kind == "semi"
    keep = [i for i, v in enumerate(t.column("v")) if (v in matches) == want]
    assert _cells(out) == _cells(take(t, keep))


def _derived_reference(t, fn):
    """The derived cell of each row, deriving each distinct tick's first cell once."""
    cells = {}
    for v, tk in zip(t.column(t.index), t.ticks()):
        if tk not in cells:
            cells[tk] = fn(v)
            if cells[tk] is None:
                raise MissingIndexError(f"index_by maps 't' cell {v} to a missing value")
    return [cells[tk] for tk in t.ticks()]


@settings(max_examples=200, deadline=None)
@given(_tables(), st.integers(1, 4), st.sets(st.integers(-4, 12), max_size=3))
def test_derived_index_matches_a_per_row_reference(t, width, unmapped):
    def seen(calls):
        return lambda v: calls.append(v) or (None if v in unmapped else v // width)

    ref_calls, calls = [], []
    try:
        want = _derived_reference(t, seen(ref_calls))
    except MissingIndexError as exc:
        with pytest.raises(MissingIndexError) as info:
            _derived_index(t, seen(calls), "t_by")
        assert str(info.value) == str(exc)
        with pytest.raises(MissingIndexError) as info:
            index_by(t, seen([]))
        assert str(info.value) == str(exc)
    else:
        got, ticks, _ = _derived_index(t, seen(calls), "t_by")
        assert got == want and ticks == want
        # summarize pools each derived cell's rows, counting present values.
        out = summarize(index_by(t, seen([])), n=("count", "v"))
        counts = Counter(d for d, v in zip(want, t.column("v")) if v is not None)
        assert dict(zip(out.column("t_by"), out.column("n"))) == {d: counts[d] for d in set(want)}
    # Each distinct tick's first cell is derived once, in row order.
    assert calls == ref_calls


class _Tagged(int):
    """An int index cell that shows which row gave it; cells of one tick
    in two series are equal but not the same cell."""

    def __new__(cls, value, tag):
        cell = int.__new__(cls, value)
        cell.tag = tag
        return cell

    def __repr__(self):
        return self.tag

    __str__ = __repr__


def test_derived_index_derives_each_ticks_first_cell_in_row_order():
    cells = [_Tagged(1, "b1"), _Tagged(2, "a2"), _Tagged(1, "a1"), _Tagged(3, "b3")]
    t = build({"t": cells, "k": ["b", "a", "a", "b"], "v": [1, 2, 3, 4]}, "t", ["k"])
    assert [c.tag for c in t.column("t")] == ["a1", "a2", "b1", "b3"]
    calls = []
    got, _, _ = _derived_index(t, lambda v: calls.append(v.tag) or int(v), "d")
    assert (got, calls) == ([1, 2, 1, 3], ["a1", "a2", "b3"])
    with pytest.raises(MissingIndexError, match="^index_by maps 't' cell a1 to a missing value$"):
        _derived_index(t, lambda v: None if v in (1, 3) else v, "d")
    with pytest.raises(MissingIndexError, match="cell b3 "):
        index_by(t, lambda v: None if v == 3 else v)
