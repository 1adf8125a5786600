import inspect
import statistics
from decimal import Decimal

import pytest

from temporaltable import (
    GapError,
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
    threaded = roll_by_key(tb, "count", "slide", statistics.fmean, 2, workers=4)
    assert serial.column("count_slide") == threaded.column("count_slide")
    assert repr(serial.column("count_slide")) == repr(threaded.column("count_slide"))


@pytest.mark.parametrize("workers", [0, -1, True, 2.5, "2"])
def test_roll_by_key_rejects_bad_workers(tb, workers, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(rolling, "ThreadPoolExecutor", no_pool)
    with pytest.raises(PreconditionError, match="workers must be a positive integer"):
        roll_by_key(tb, "count", "slide", sum, 2, workers=workers)


def test_roll_by_key_keeps_interval_and_rows(tb):
    out = roll_by_key(tb, "count", "slide", sum, 2)
    assert out.interval == tb.interval
    assert out.nrows == tb.nrows
    for name in tb.column_names:
        assert out.column(name) == tb.column(name)
