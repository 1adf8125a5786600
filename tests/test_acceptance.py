"""End-to-end acceptance checks.

Each test records a pass/fail verdict in RESULTS; the terminal-summary hook
in conftest prints one line per criterion after capture ends, so the
outcome is visible in plain pytest output.  Oracles are computed
independently of the code under test wherever the check is not a fixed
golden value.
"""

import functools
import math
import random
import statistics
import time

import pytest

from temporaltable import (
    Granularity,
    IngestConfig,
    TemporalTableError,
    TimePoint,
    build,
    count_gaps,
    fill_gaps,
    gather,
    group_by,
    has_gaps,
    index_by,
    ingest,
    join,
    key_groups,
    mutate,
    render_summary,
    roll_by_key,
    scan_gaps,
    select,
    slide,
    spread,
    stretch,
    summarize,
    tile,
    validate_table,
    Window,
    filter_index,
)
from temporaltable import filter as tfilter
from temporaltable.cli import main as cli_main
from conftest import DATA, assert_same_table, load_tuberculosis, table_rows


RESULTS: dict[int, tuple[str, bool]] = {}


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[num] = (desc, False)
                raise
            RESULTS[num] = (desc, True)
        return wrapper
    return deco


def _numeric(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@criterion(1, "golden contextual print of the 12-row fixture")
def test_criterion_01_golden_print():
    started = time.perf_counter()
    t = ingest(IngestConfig(str(DATA / "tuberculosis.csv"), index="year",
                            key=("country", "gender")))
    lines = render_summary(t).splitlines()
    assert lines[0] == "# A tsibble: 12 x 5 [1Y]"
    assert lines[1] == "# Key:       country, gender [6]"
    assert time.perf_counter() - started < 1.0


@criterion(2, "duplicate detection workflow over the flights fixture")
def test_criterion_02_duplicate_workflow(capsys, tmp_path):
    started = time.perf_counter()
    argv = ["validate", str(DATA / "flights10.csv"),
            "--index", "sched_dep_datetime", "--key", "flight_num", "--irregular"]
    rc = cli_main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    data_lines = [l for l in captured.err.splitlines()
                  if not l.startswith(("error:", "flight_num,"))]
    assert len(data_lines) == 2
    assert all(l.startswith("NK630,2017-08-03 17:45:00") for l in data_lines)
    assert "N601NK" in data_lines[0] and "N639NK" in data_lines[1]

    kept = [l for l in (DATA / "flights10.csv").read_text().splitlines(keepends=True)
            if "N601NK" not in l]
    fixed = tmp_path / "deduped.csv"
    fixed.write_text("".join(kept))
    argv[1] = str(fixed)
    rc = cli_main(argv)
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "# A tsibble: 9 x 22 [!] <UTC>"
    assert time.perf_counter() - started < 1.0


@criterion(3, "interval inference property suite, 1000 random regular tables")
def test_criterion_03_interval_inference():
    started = time.perf_counter()
    rng = random.Random(20110705)
    grans = [Granularity.YEAR, Granularity.MONTH, Granularity.DAY, Granularity.SECOND]
    for trial in range(1000):
        g = rng.choice(grans)
        m = rng.randrange(1, 13)
        n_keys = rng.randrange(1, 4)
        cols = {"k": [], "t": [], "v": []}
        per_key_ticks = []
        for ki in range(n_keys):
            start = rng.randrange(0, 50)
            picks = sorted(rng.sample(range(12), rng.randrange(2, 9)))
            if ki == 0:
                # One adjacent surviving pair pins the grid unit.
                j = rng.randrange(len(picks) - 1)
                picks = sorted(set(picks[: j + 1] + [picks[j] + 1] + picks[j + 1 :]))
            ticks = [start + p * m for p in picks]
            per_key_ticks.append(ticks)
            for tk in ticks:
                cols["k"].append(f"s{ki}")
                cols["t"].append(TimePoint(tk, g))
                cols["v"].append(rng.random())
        t = build(cols, "t", ("k",))

        assert t.interval.is_regular
        inferred = t.interval.multiple
        assert t.interval.unit is g
        for ticks in per_key_ticks:
            for a, b in zip(ticks, ticks[1:]):
                assert (b - a) % inferred == 0, (trial, g, m)
        dense = fill_gaps(t)
        assert dense.interval.multiple == m, (trial, g, m, inferred)
        assert inferred == m
    assert time.perf_counter() - started < 10.0


@criterion(4, "gap verb consistency over 1000 random gappy tables")
def test_criterion_04_gap_consistency():
    started = time.perf_counter()
    rng = random.Random(46102229)
    for trial in range(1000):
        n_keys = rng.randrange(1, 5)
        cols = {"k": [], "t": [], "v": []}
        for ki in range(n_keys):
            for tk in sorted(rng.sample(range(30), rng.randrange(2, 9))):
                cols["k"].append(f"s{ki}")
                cols["t"].append(tk)
                cols["v"].append(rng.random())
        t = build(cols, "t", ("k",))
        for full in (False, True):
            missing = scan_gaps(t, full=full)
            assert count_gaps(t, full=full).total() == len(missing)
            filled = fill_gaps(t, full=full)
            assert all(not flag for _, flag in has_gaps(filled, full=full))
            assert filled.nrows == t.nrows + len(missing)
            again = fill_gaps(filled, full=full)
            assert again == filled, trial
    assert time.perf_counter() - started < 20.0


@criterion(5, "full-span fill yields a balanced panel")
def test_criterion_05_balanced_panel():
    t = build(
        {
            "key": ["A", "A", "A", "B", "B"],
            "t": [1, 2, 3, 2, 3],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0],
        },
        "t",
        ("key",),
    )
    balanced = fill_gaps(t, full=True)
    assert balanced.nrows == 6
    counts = {kt: len(r) for kt, r in key_groups(balanced)}
    assert counts == {("A",): 3, ("B",): 3}
    assert [v for kt, r in key_groups(balanced)
            for v in balanced.column("t")[r.start:r.stop]] == [1, 2, 3, 1, 2, 3]


@criterion(6, "rolling algebra, exhaustive for n, size, step up to 8")
def test_criterion_06_rolling_algebra():
    def slide_oracle(n, size, step, partial):
        spans = [(0, s) for s in range(1, n + 1) if partial and s < size]
        spans += [(a, a + size) for a in range(0, n - size + 1) if a % step == 0]
        return spans

    def tile_oracle(n, size):
        return [(i * size, min((i + 1) * size, n))
                for i in range(math.ceil(n / size))]

    def stretch_oracle(n, init, step):
        return [(0, e) for e in range(n + 1) if e >= init and (e - init) % step == 0]

    for n in range(0, 9):
        xs = list(range(100, 100 + n))
        for size in range(1, 9):
            blocks = tile(xs, list, size)
            assert blocks == [xs[a:b] for a, b in tile_oracle(n, size)]
            for step in range(1, 9):
                for partial in (False, True):
                    got = slide(xs, list, Window(size, step=step, partial=partial))
                    want = [xs[a:b] for a, b in slide_oracle(n, size, step, partial)]
                    assert got == want, (n, size, step, partial)
                    if not partial:
                        assert len(got) == max(0, (n - size) // step + 1)
                grown = stretch(xs, list, init=size, step=step)
                assert grown == [xs[a:b] for a, b in stretch_oracle(n, size, step)]
            complete = slide(xs, list, Window(size, step=size))
            assert complete == [b for b in tile(xs, list, size) if len(b) == size]
        if n:
            assert stretch(xs, list, init=n) == [xs]
    assert len(slide(list(range(1, 14)), sum, 5)) == 9


@criterion(7, "parallel rolling is bit-identical to serial over 100 keys")
def test_criterion_07_parallel_determinism():
    rng = random.Random(5548445)
    cols = {"k": [], "t": [], "v": []}
    for ki in range(100):
        for tk in range(30):
            cols["k"].append(f"k{ki:03d}")
            cols["t"].append(tk)
            cols["v"].append(rng.uniform(-100.0, 100.0))
    t = build(cols, "t", ("k",))
    serial = roll_by_key(t, "v", "slide", statistics.fmean, Window(7))
    # workers is deprecated and ignored; it must change no value or repr.
    with pytest.warns(DeprecationWarning, match="workers"):
        threaded = roll_by_key(t, "v", "slide", statistics.fmean, Window(7), workers=8)
    assert serial.column("v_slide") == threaded.column("v_slide")
    assert repr(serial.column("v_slide")) == repr(threaded.column("v_slide"))
    assert serial == threaded


def _random_source_table(rng):
    n_keys = rng.randrange(1, 4)
    cols = {"k": [], "t": [], "x": [], "y": [], "s": []}
    for ki in range(n_keys):
        for year in sorted(rng.sample(range(2010, 2018), rng.randrange(2, 7))):
            cols["k"].append("key" + "abc"[ki])
            cols["t"].append(TimePoint(year - 1970, Granularity.YEAR))
            cols["x"].append(rng.choice([None, rng.randrange(0, 100)]))
            cols["y"].append(rng.choice([None, rng.random() * 10]))
            cols["s"].append(rng.choice(["red", "blue", "green"]))
    return build(cols, "t", ("k",))


def _random_verb(rng):
    which = rng.choice(
        ["filter", "filter_index", "mutate", "select", "group_by",
         "index_by", "summarize", "gather", "spread", "join"]
    )
    if which == "filter":
        col = rng.choice(["x", "y", "s", "k"])
        cut = rng.random() * 50
        return which, lambda t: tfilter(
            t, lambda r: _numeric(r[col]) and r[col] > cut
        ).table
    if which == "filter_index":
        window = rng.choice(["2011", "~ 2013", "2012 ~", "2011 ~ 2015", "2016"])
        return which, lambda t: filter_index(t, window).table
    if which == "mutate":
        col = rng.choice(["x", "y", "z"])
        delta = rng.randrange(1, 5)
        return which, lambda t: mutate(
            t, z=lambda r: (r[col] if _numeric(r[col]) else 0) + delta
        ).table
    if which == "select":
        def run(t, rng_bits=rng.getrandbits(16)):
            names = list(t.column_names)
            picked = [c for i, c in enumerate(names) if (rng_bits >> (i % 16)) & 1]
            return select(t, picked or names[:1]).table
        return which, run
    if which == "group_by":
        col = rng.choice(["k", "s", "x", "t"])
        return which, lambda t: group_by(t, col)
    if which == "index_by":
        return which, lambda t: index_by(t, Granularity.YEAR)
    if which == "summarize":
        spec = rng.choice(["sum", "mean", "count", "min", "quantile:0.25"])
        col = rng.choice(["x", "y", "s"])
        return which, lambda t: summarize(t, agg_out=(spec, col))
    if which == "gather":
        cols = rng.choice([["x"], ["y"], ["x", "y"], ["x", "s"]])
        return which, lambda t: gather(t, "series", "value", cols).table
    if which == "spread":
        pair = rng.choice([("k", "x"), ("s", "y"), ("s", "x"), ("k", "s")])
        return which, lambda t: spread(t, pair[0], pair[1]).table
    right = rng.choice(
        [
            {"k": ["keya", "keyb"], "tag": [1, 2]},
            {"k": ["keya", "keya"], "tag": [1, 2]},
            {"s": ["red", "blue"], "hue": [0.1, 0.6]},
            {"unrelated": [1]},
        ]
    )
    kind = rng.choice(["left", "inner", "semi", "anti", "full"])
    return "join", lambda t: join(t, right, kind=kind).table


@criterion(8, "500 random verb pipelines either fail cleanly or validate")
def test_criterion_08_verb_fuzz():
    started = time.perf_counter()
    rng = random.Random(8018)
    outcomes = {"ok": 0, "refused": 0}
    for trial in range(500):
        t = _random_source_table(rng)
        steps = [_random_verb(rng) for _ in range(rng.randrange(3, 7))]
        try:
            for _, step in steps:
                t = step(t)
        except TemporalTableError:
            outcomes["refused"] += 1
            continue
        except Exception as exc:  # anything else is a broken contract
            raise AssertionError(
                f"trial {trial}: {[n for n, _ in steps]} leaked {exc!r}"
            ) from exc
        validate_table(t)
        outcomes["ok"] += 1
    # The mix should exercise both paths, not collapse into one.
    assert outcomes["ok"] > 50
    assert outcomes["refused"] > 50
    assert time.perf_counter() - started < 30.0


@criterion(9, "summarize matches brute-force totals on the fixture")
def test_criterion_09_aggregation_oracle(tb):
    raw = load_tuberculosis()
    rows = list(zip(raw["country"], raw["year"], raw["count"]))
    brute_australia = sum(c for country, y, c in rows
                          if country == "Australia" and y.render() == "2011")
    brute_global = sum(c for _, y, c in rows if y.render() == "2011")
    assert brute_australia == 296
    assert brute_global == 4038

    per_country = summarize(group_by(tb, "country"), total=("sum", "count"))
    got = {(r["country"], r["year"].render()): r["total"]
           for r in table_rows(per_country)}
    assert got[("Australia", "2011")] == brute_australia

    overall = summarize(tb, total=("sum", "count"))
    got_all = {r["year"].render(): r["total"] for r in table_rows(overall)}
    assert got_all["2011"] == brute_global


@criterion(10, "spread then gather round-trips the fixture")
def test_criterion_10_reshape_round_trip(tb):
    wide = spread(tb, "gender", "count").table
    assert set(wide.column_names) >= {"Female", "Male"}
    back = gather(wide, "gender", "count", ["Female", "Male"]).table
    assert_same_table(back, tb, ignore_column_order=True)
