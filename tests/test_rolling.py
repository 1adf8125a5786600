import inspect
import math
import statistics
import threading
import warnings
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from temporaltable import (
    GapError,
    aggregates,
    PreconditionError,
    SchemaError,
    TypedResultError,
    UnsupportedOperationError,
    Window,
    build,
    pslide,
    roll_by_key,
    slide,
    slide2,
    stretch,
    tile,
    rolling,
    validate_table,
)
from temporaltable.rolling import (
    slide_bool,
    slide_int,
    slide_real,
    slide_text,
    stretch_int,
    stretch_real,
    tile_int,
    tile_real,
)
from conftest import table_rows


# --- slide ------------------------------------------------------------------


def test_slide_pairwise_sums():
    assert slide([1, 2, 3, 4], sum, 2) == [3, 5, 7]


def test_slide_windows_are_contiguous_slices():
    assert slide([1, 2, 3, 4], list, 3) == [[1, 2, 3], [2, 3, 4]]


def test_slide_step():
    assert slide(range(1, 8), sum, Window(3, step=2)) == [6, 12, 18]
    assert slide(range(1, 8), list, Window(2, step=3)) == [[1, 2], [4, 5]]


def test_slide_partial_prefixes_first():
    assert slide([1, 2, 3, 4], list, Window(3, partial=True)) == [
        [1],
        [1, 2],
        [1, 2, 3],
        [2, 3, 4],
    ]


def test_slide_oversize_window_yields_nothing():
    assert slide([1, 2], sum, 5) == []
    assert slide([1, 2], list, Window(5, partial=True)) == [[1], [1, 2]]
    assert slide([], sum, 1) == []


def test_slide_length_closed_form():
    for n in range(0, 30):
        xs = list(range(n))
        for size in range(1, 8):
            for step in range(1, 8):
                got = len(slide(xs, len, Window(size, step=step)))
                assert got == max(0, (n - size) // step + 1), (n, size, step)


def test_slide_thirteen_by_five():
    assert len(slide(list(range(13)), sum, 5)) == 9


# --- tile -------------------------------------------------------------------


def test_tile_blocks():
    assert tile([1, 2, 3, 4, 5, 6], sum, 2) == [3, 7, 11]


def test_tile_trailing_partial_block():
    assert tile([1, 2, 3, 4, 5], sum, 2) == [3, 7, 5]
    assert tile([1, 2, 3, 4, 5], list, 3) == [[1, 2, 3], [4, 5]]


def test_tile_single_block():
    assert tile([1, 2], sum, 10) == [3]
    assert tile([], sum, 3) == []


def test_tile_matches_slide_with_stride():
    xs = list(range(1, 14))
    for size in range(1, 6):
        full = slide(xs, list, Window(size, step=size))
        blocks = tile(xs, list, size)
        assert blocks[: len(full)] == full
        if len(xs) % size:
            assert blocks[-1] == xs[-(len(xs) % size):]
        else:
            assert len(blocks) == len(full)


# --- stretch ----------------------------------------------------------------


def test_stretch_running_mean():
    assert stretch([1, 2, 3], statistics.fmean) == [1.0, 1.5, 2.0]


def test_stretch_init_and_step():
    assert stretch([1, 2, 3, 4, 5], list, init=2, step=2) == [
        [1, 2],
        [1, 2, 3, 4],
    ]
    assert stretch([1, 2, 3], sum, init=3) == [6]
    assert stretch([1, 2], sum, init=3) == []


def test_cumulative_sum_via_stretch():
    xs = [5, 1, 4, 2]
    assert stretch(xs, sum) == [5, 6, 10, 12]


# --- multi-input slide ------------------------------------------------------


def test_slide2_sees_both_windows():
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    assert slide2([1, 2, 3], [4, 5, 6], dot, 2) == [1 * 4 + 2 * 5, 2 * 5 + 3 * 6]


def test_pslide_many_inputs():
    out = pslide([[1, 2, 3], [10, 20, 30], [100, 200, 300]],
                 lambda a, b, c: a[-1] + b[-1] + c[-1], 1)
    assert out == [111, 222, 333]


def test_pslide_validates_inputs():
    with pytest.raises(PreconditionError):
        pslide([], sum, 2)
    with pytest.raises(PreconditionError):
        pslide([[1, 2], [1, 2, 3]], lambda a, b: 0, 2)
    with pytest.raises(PreconditionError):
        slide2([1, 2], [1, 2, 3], lambda a, b: 0, 2)


def test_slide2_equals_pslide():
    xs, ys = [1, 2, 3, 4], [5, 6, 7, 8]
    f = lambda a, b: (a[0], b[-1])
    assert slide2(xs, ys, f, Window(2, step=2)) == pslide([xs, ys], f, Window(2, step=2))


# --- window validation ------------------------------------------------------


def test_window_rejects_bad_shapes():
    size_error = "window size must be a positive integer"
    for bad in (0, -1, 1.5, True, "2"):
        with pytest.raises(PreconditionError, match=size_error):
            Window(bad)
        with pytest.raises(PreconditionError, match=size_error):
            slide([1], sum, bad)
    with pytest.raises(PreconditionError, match="window step must be a positive integer"):
        Window(2, step=0)
    with pytest.raises(PreconditionError, match=size_error):
        tile([1], sum, 0)
    with pytest.raises(PreconditionError, match=size_error):
        stretch([1], sum, init=0)
    with pytest.raises(PreconditionError, match="window step must be a positive integer"):
        stretch([1], sum, step=0)


# --- typed variants ---------------------------------------------------------


def test_typed_results_pass_through():
    assert slide_int([1, 2, 3], sum, 2) == [3, 5]
    assert slide_bool([1, 2, 3], lambda w: w[-1] > 1, 1) == [False, True, True]
    assert slide_text(["a", "b"], "".join, 2) == ["ab"]
    assert tile_int([1, 2, 3], sum, 2) == [3, 3]
    assert stretch_int([1, 2, 3], sum) == [1, 3, 6]


def test_typed_real_coerces_ints():
    out = slide_real([1, 2, 3], sum, 2)
    assert out == [3.0, 5.0]
    assert all(isinstance(v, float) for v in out)
    assert tile_real([1, 2], sum, 2) == [3.0]
    assert stretch_real([1, 2], sum) == [1.0, 3.0]


def test_typed_mismatch_names_position():
    with pytest.raises(TypedResultError, match="position 1"):
        slide_int([1, 2, 3], lambda w: 0.5 if w[0] == 2 else sum(w), 2)
    with pytest.raises(TypedResultError):
        slide_int([1, 2], lambda w: True, 2)
    with pytest.raises(TypedResultError):
        slide_bool([1, 2], lambda w: 1, 2)
    with pytest.raises(TypedResultError):
        slide_text([1, 2], sum, 2)
    with pytest.raises(TypedResultError):
        slide_real([1, 2], lambda w: "x", 2)


@pytest.mark.parametrize("base", [slide, tile, stretch])
@pytest.mark.parametrize("kind", ["int", "real", "bool", "text"])
def test_typed_variants_keep_their_base_signature(base, kind):
    typed = getattr(rolling, f"{base.__name__}_{kind}")
    assert typed.__name__ == f"{base.__name__}_{kind}"
    params = inspect.signature(typed).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        (p.name, p.default) for p in inspect.signature(base).parameters.values()
    ]


def test_typed_unsupported_result_names_position():
    with pytest.raises(TypedResultError, match=r"position 1 is Decimal\('3'\), not real"):
        slide_real([1, 2, 3], lambda w: Decimal(w[-1]) if w[-1] == 3 else sum(w), 2)


# --- roll_by_key ------------------------------------------------------------


def test_roll_by_key_slide_mean(tb):
    out = roll_by_key(tb, "count", "slide", statistics.fmean, 2)
    assert out.column_names == tb.column_names + ["count_slide"]
    rows = table_rows(out)
    first = [r for r in rows if r["country"] == "Australia" and r["gender"] == "Female"]
    assert [r["count_slide"] for r in first] == [None, 122.5]
    for r in rows:
        assert (r["count_slide"] is None) == (r["year"].render() == "2011")
    validate_table(out)


def test_roll_by_key_respects_group_boundaries(tb):
    out = roll_by_key(tb, "count", "slide", lambda w: f"{w[0]}>{w[-1]}", 2)
    windows = [r["count_slide"] for r in table_rows(out) if r["count_slide"] is not None]
    assert sorted(windows) == sorted(
        ["120>125", "176>161", "36>23", "47>42", "1170>1158", "2489>2380"]
    )


def test_roll_by_key_custom_name_and_kind(tb):
    out = roll_by_key(tb, "count", "slide", sum, 2, as_name="two_year")
    assert out.kind_of("two_year") == "int"
    assert "count_slide" not in out.column_names


def test_roll_by_key_stretch_uses_size_as_init():
    t = build({"t": [1, 2, 3], "v": [5.0, 1.0, 4.0]}, "t")
    out = roll_by_key(t, "v", "stretch", sum, Window(2))
    assert out.column("v_stretch") == [None, 6.0, 10.0]
    out = roll_by_key(t, "v", "stretch", sum, 1)
    assert out.column("v_stretch") == [5.0, 6.0, 10.0]


def test_roll_by_key_tile():
    t = build({"t": [1, 2, 3, 4, 5], "v": [1, 2, 3, 4, 5]}, "t")
    out = roll_by_key(t, "v", "tile", sum, 2)
    assert out.column("v_tile") == [None, 3, None, 7, 5]


def test_roll_by_key_refuses_gappy_tables():
    t = build({"t": [1, 2, 5], "v": [1.0, 2.0, 5.0]}, "t")
    with pytest.raises(GapError, match="fill_gaps"):
        roll_by_key(t, "v", "slide", sum, 2)


def test_roll_by_key_refuses_a_clashing_name_before_rolling():
    calls = []

    def counting_sum(window):
        calls.append(window)
        return sum(window)

    t = build({"t": [1, 2, 3], "v": [1.0, 2.0, 3.0], "v_slide": [0, 0, 0]}, "t")
    for as_name in (None, "t"):
        with pytest.raises(SchemaError, match="already exists; pass as_name"):
            roll_by_key(t, "v", "slide", counting_sum, 2, as_name=as_name)
    assert calls == []
    gappy = build({"t": [1, 2, 5], "v": [1.0, 2.0, 5.0]}, "t")
    with pytest.raises(GapError):
        roll_by_key(gappy, "v", "slide", counting_sum, 2, as_name="v")
    assert calls == []
    assert roll_by_key(t, "v", "slide", counting_sum, 2, as_name="w").column("w") == [
        None, 3.0, 5.0]
    assert len(calls) == 2


def test_roll_by_key_refuses_irregular_tables():
    t = build({"t": [1, 2, 5], "v": [1.0, 2.0, 5.0]}, "t", regular=False)
    with pytest.raises(UnsupportedOperationError):
        roll_by_key(t, "v", "slide", sum, 2)


def test_roll_by_key_allows_unknown_interval():
    t = build({"t": [7], "v": [1.0]}, "t")
    out = roll_by_key(t, "v", "slide", sum, 1)
    assert out.column("v_slide") == [1.0]


def test_roll_by_key_argument_errors(tb):
    with pytest.raises(PreconditionError):
        roll_by_key(tb, "count", "hop", sum, 2)
    with pytest.raises(SchemaError):
        roll_by_key(tb, "nope", "slide", sum, 2)
    with pytest.raises(PreconditionError):
        roll_by_key(tb, "gender", "slide", sum, 2)
    with pytest.raises(SchemaError):
        roll_by_key(tb, "count", "slide", sum, 2, as_name="count")


@pytest.mark.parametrize("op, w, message", [
    ("tile", Window(2, step=3), "tile takes no step"),
    ("tile", Window(2, partial=True), "tile has no partial windows"),
    ("stretch", Window(2, partial=True), "stretch has no partial windows"),
])
def test_roll_by_key_refuses_window_parts_the_op_ignores(tb, op, w, message):
    with pytest.raises(PreconditionError, match=message):
        roll_by_key(tb, "count", op, sum, w)


def test_roll_by_key_parallel_matches_serial(tb):
    serial = roll_by_key(tb, "count", "slide", statistics.fmean, 2)
    with pytest.warns(DeprecationWarning, match="workers"):
        threaded = roll_by_key(tb, "count", "slide", statistics.fmean, 2, workers=4)
    assert serial.column("count_slide") == threaded.column("count_slide")
    assert repr(serial.column("count_slide")) == repr(threaded.column("count_slide"))


def test_roll_by_key_workers_is_deprecated_and_starts_no_thread(tb, monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    serial = roll_by_key(tb, "count", "slide", statistics.fmean, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = roll_by_key(tb, "count", "slide", statistics.fmean, 2, workers=4)
    assert [w.category for w in caught] == [DeprecationWarning]
    assert out == serial
    assert repr(out.column("count_slide")) == repr(serial.column("count_slide"))


@pytest.mark.parametrize("workers", [0, -1, True, 2.5, "2"])
def test_roll_by_key_rejects_bad_workers(tb, workers):
    with pytest.raises(PreconditionError, match="workers must be a positive integer"):
        roll_by_key(tb, "count", "slide", sum, 2, workers=workers)


def test_roll_by_key_keeps_interval_and_rows(tb):
    out = roll_by_key(tb, "count", "slide", sum, 2)
    assert out.interval == tb.interval
    assert out.nrows == tb.nrows
    for name in tb.column_names:
        assert out.column(name) == tb.column(name)


# --- roll_by_key with an aggregate spec -------------------------------------

SPECS = ("sum", "mean", "count", "min", "max", "quantile:0.5")


def same_cells(got, want):
    # repr tells nan, -0.0 and 1 from 1.0 apart.
    return [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]


@st.composite
def rolls(draw, cells):
    """A table of 1-3 series of drawn cells, and an op with its window."""
    series = draw(st.lists(st.lists(cells, min_size=1, max_size=20), min_size=1, max_size=3))
    if all(v is None for xs in series for v in xs):
        series[0][0] = draw(cells.filter(lambda v: v is not None))
    t = build(
        {
            "k": [i for i, xs in enumerate(series) for _ in xs],
            "t": [j for xs in series for j in range(len(xs))],
            "v": [v for xs in series for v in xs],
        },
        "t",
        ("k",),
    )
    op = draw(st.sampled_from(("slide", "tile", "stretch")))
    size = draw(st.integers(1, 8))
    step = 1 if op == "tile" else draw(st.integers(1, 8))
    partial = op == "slide" and draw(st.booleans())
    return t, op, Window(size, step, partial)


INTS = st.integers()
REALS = st.floats(allow_nan=False, allow_infinity=False)
COLUMNS = {
    "int": st.one_of(st.none(), INTS),
    "real": st.one_of(st.none(), REALS),
    "mixed": st.one_of(st.none(), INTS, REALS),
    "nonfinite": st.one_of(st.none(), INTS, st.floats(), st.sampled_from([math.inf, -math.inf, math.nan])),
}


def check_spec_roll(case, spec, workers):
    t, op, w = case

    def roll():
        # workers is deprecated and ignored: it must change no result.
        if workers is None:
            return roll_by_key(t, "v", op, spec, w)
        with pytest.warns(DeprecationWarning, match="workers"):
            return roll_by_key(t, "v", op, spec, w, workers=workers)

    try:
        want = roll_by_key(t, "v", op, lambda win: aggregates.apply(spec, win), w).column("v_" + op)
    except (OverflowError, ValueError) as exc:  # e.g. fmean over windows whose sum overflows
        with pytest.raises(type(exc)):
            roll()
        return
    got = roll().column("v_" + op)
    assert same_cells(got, want)


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("column", ["int", "real", "mixed"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spec_roll_matches_each_window(column, spec, workers, data):
    check_spec_roll(data.draw(rolls(COLUMNS[column])), spec, workers)


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_spec_roll_over_inf_and_nan_slices_the_series(spec, data):
    check_spec_roll(data.draw(rolls(COLUMNS["nonfinite"])), spec, None)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("values", [
    [1.0, math.nan, 0.5, 2.0],  # builtin min/max over nan depend on its place
    [1.7e308, 1.7e308, -1.7e308, 1.0],  # fsum overflows on the way
    [1.7e308, 2, 1.7e308, -1e308],
    [10**400, 1, 2.5, 3],  # an int too large for a float
])
def test_spec_roll_series_beyond_the_kernels(spec, values):
    t = build({"t": list(range(len(values))), "v": values}, "t")
    for op, w in (("slide", Window(3)), ("tile", Window(2)), ("stretch", Window(1))):
        check_spec_roll((t, op, w), spec, None)


def test_spec_roll_sum_is_correctly_rounded():
    t = build({"t": [1, 2, 3, 4], "v": [1e16, 1.0, -1e16, 3]}, "t")
    out = roll_by_key(t, "v", "slide", "sum", 3)
    assert same_cells(out.column("v_slide"), [None, None, 1.0, math.fsum([1.0, -1e16, 3])])
    t = build({"t": [1, 2, 3, 4], "v": [1, 2.5, 2, 3]}, "t")
    # A window of int cells sums to an int, one with a float cell to a float.
    assert same_cells(roll_by_key(t, "v", "tile", "sum", 2).column("v_tile"),
                      [None, 3.5, None, 5])


@pytest.mark.parametrize("spec", ["min", "max", "quantile:0.5"])
def test_spec_roll_window_holding_nan_gives_nan(spec):
    t = build({"t": [1, 2, 3, 4], "v": [math.nan, 1.0, 2.0, math.nan]}, "t")
    got = roll_by_key(t, "v", "slide", spec, 2).column("v_slide")
    want = {"min": 1.0, "max": 2.0, "quantile:0.5": 1.5}[spec]
    assert same_cells(got, [None, math.nan, want, math.nan])


def test_spec_roll_min_max_keep_the_earliest_of_equal_cells():
    t = build({"t": [1, 2, 3, 4], "v": [1, 1.0, 2.0, 2]}, "t")
    assert same_cells(roll_by_key(t, "v", "slide", "min", 2).column("v_slide"),
                      [None, 1, 1.0, 2.0])
    assert same_cells(roll_by_key(t, "v", "stretch", "max", 1).column("v_stretch"),
                      [1, 1, 2.0, 2.0])


@pytest.mark.parametrize("spec, kinds", [
    ("sum", ("int", "real")),
    ("min", ("int", "real")),
    ("max", ("int", "real")),
    ("count", ("int", "int")),
    ("mean", ("real", "real")),
    ("quantile:0.9", ("real", "real")),
])
def test_spec_roll_with_no_window_declares_its_kind(spec, kinds):
    for values, kind in zip(([1, 2, 3], [1.0, 2.0, 3.0]), kinds):
        t = build({"t": [1, 2, 3], "v": values}, "t")
        out = roll_by_key(t, "v", "slide", spec, 5)
        assert out.column("v_slide") == [None, None, None]
        assert out.kind_of("v_slide") == kind


def test_a_column_with_no_present_cell_rolls():
    t = build({"t": [1, 2, 3], "v": [None, None, None], "s": ["a", "b", "c"]}, "t")
    out = roll_by_key(t, "v", "slide", "count", 2)
    assert out.column("v_slide") == [None, 0, 0]
    assert out.kind_of("v_slide") == "int"
    out = roll_by_key(t, "v", "slide", "sum", 2)
    assert out.column("v_slide") == [None, None, None]
    assert out.kind_of("v_slide") is None
    with pytest.raises(PreconditionError, match="column 's' is not numeric"):
        roll_by_key(t, "s", "slide", "count", 2)


def test_callable_roll_with_no_window_has_kind_none():
    out = roll_by_key(build({"t": [1, 2, 3], "v": [1, 2, 3]}, "t"), "v", "slide", sum, 5)
    assert out.schema[-1] == ("v_slide", None)
    assert out.column("v_slide") == [None, None, None]
    # Where a window ends, the results' own kind wins.
    out = roll_by_key(build({"t": [1, 2, 3], "v": [1, 2, 3]}, "t"), "v", "slide", statistics.fmean, 2)
    assert out.schema[-1] == ("v_slide", "real")


def test_spec_roll_refuses_a_bad_spec(tb):
    with pytest.raises(SchemaError, match="unknown aggregate 'median'"):
        roll_by_key(tb, "count", "slide", "median", 2)
