import math
import random
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from temporaltable import (
    Granularity,
    Interval,
    PreconditionError,
    SchemaError,
    build,
    timepoint as tp,
)
from temporaltable.interval import infer_from_ticks


def _infer(groups, granularity=Granularity.ORDINAL):
    """``infer_from_ticks`` over per-series tick lists: flattened, with the
    ends of the series."""
    ticks = [tk for group in groups for tk in group]
    ends = list(accumulate(map(len, groups)))
    return infer_from_ticks(ticks, ends, granularity)


def _multiple(diffs):
    """The inferred multiple of one series whose ticks step by ``diffs``."""
    return _infer([list(accumulate([0, *diffs]))]).multiple


def test_gcd_examples():
    assert _multiple([1, 1, 1]) == 1
    assert _multiple([4, 6, 10]) == 2
    assert _multiple([7]) == 7


def test_gcd_bad_inputs():
    assert _infer([]) == _infer([[5], []]) == Interval.unknown()
    with pytest.raises(PreconditionError):
        _infer([[0, 3, 3]])
    with pytest.raises(PreconditionError):
        _infer([[0, 3, 1]])


def test_gcd_divides_all_and_is_maximal():
    rng = random.Random(5)
    for _ in range(300):
        diffs = [rng.randrange(1, 60) for _ in range(rng.randrange(1, 6))]
        g = _multiple(diffs)
        assert all(d % g == 0 for d in diffs)
        for candidate in range(g + 1, max(diffs) + 1):
            assert not all(d % candidate == 0 for d in diffs)


def test_infer_two_years_per_key():
    t = build({"k": [k for k in "abcdef" for _ in range(2)],
               "y": [tp.year(2011), tp.year(2012)] * 6}, "y", ["k"])
    assert t.interval == Interval.regular(Granularity.YEAR, 1)
    assert t.interval.shorthand() == "[1Y]"


def test_infer_single_observation_per_key_is_unknown():
    t = build({"k": ["a", "b"], "y": [tp.year(2011), tp.year(2014)]}, "y", ["k"])
    assert t.interval == Interval.unknown()
    assert t.interval.shorthand() == "[?]"


def test_infer_declared_irregular():
    s = [tp.second(2017, 8, 3, 17, 45, 0), tp.second(2017, 8, 3, 19, 2, 13)]
    t = build({"s": s}, "s", regular=False)
    assert t.interval == Interval.irregular() and not t.declared_regular
    assert t.interval.shorthand() == "[!]"


def test_infer_mixed_granularities_rejected():
    with pytest.raises(SchemaError):
        build({"k": ["a", "a", "b", "b"],
               "t": [tp.year(2011), tp.year(2012), tp.month(2011, 1), tp.month(2011, 2)]},
              "t", ["k"])


def test_infer_requires_sorted_distinct():
    with pytest.raises(PreconditionError):
        _infer([[2012, 2011]])
    with pytest.raises(PreconditionError):
        _infer([[2011, 2011]])


def test_infer_permutation_invariant():
    rng = random.Random(9)
    groups = []
    for _ in range(5):
        start = rng.randrange(0, 50)
        groups.append([start + 3 * j for j in range(4)])
    base = _infer(groups, granularity=Granularity.MONTH)
    assert base == Interval.regular(Granularity.MONTH, 3)
    for _ in range(5):
        shuffled = groups[:]
        rng.shuffle(shuffled)
        assert _infer(shuffled, granularity=Granularity.MONTH) == base


def test_inferred_multiple_divides_every_diff():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randrange(1, 9)
        groups = []
        for _ in range(rng.randrange(1, 4)):
            anchor = rng.randrange(0, 100)
            groups.append(sorted({anchor + m * rng.randrange(0, 20) for _ in range(6)}))
        iv = _infer(groups)
        if iv.is_regular:
            for g in groups:
                for a, b in zip(g, g[1:]):
                    assert (b - a) % iv.multiple == 0


def _infer_per_series(groups):
    """The interval of ``groups`` taken one series at a time."""
    steps = [b - a for group in groups for a, b in zip(group, group[1:])]
    if not steps:
        return Interval.unknown()
    if min(steps) <= 0:
        raise PreconditionError("index ticks must be sorted ascending and distinct")
    return Interval.regular(Granularity.ORDINAL, math.gcd(*steps))


# Mostly valid series, some left unsorted or with a repeat.
_SERIES = st.lists(st.integers(-30, 30), max_size=6).flatmap(
    lambda ticks: st.sampled_from([sorted(set(ticks)), ticks])
)


@given(st.lists(_SERIES, max_size=6))
@example([[], [4], [], [], [9]])  # empty and one-tick series only
@example([[5, 6], [1, 2]])  # the next series starts below the last
@example([[1, 3], [3, 5]])  # ... or on it
@example([[7], [7, 7]])
@example([[0, 4, 2]])
def test_flat_inference_matches_per_series_inference(groups):
    try:
        want = _infer_per_series(groups)
    except PreconditionError:
        with pytest.raises(PreconditionError, match="sorted ascending and distinct"):
            _infer(groups)
        return
    assert _infer(groups) == want


def test_shorthand_unit_letters():
    cases = [
        (Granularity.YEAR, 1, "[1Y]"),
        (Granularity.QUARTER, 2, "[2Q]"),
        (Granularity.MONTH, 3, "[3M]"),
        (Granularity.WEEK, 1, "[1W]"),
        (Granularity.DAY, 7, "[7D]"),
        (Granularity.HOUR, 4, "[4h]"),
        (Granularity.MINUTE, 30, "[30m]"),
        (Granularity.SECOND, 10, "[10s]"),
        (Granularity.MILLISECOND, 250, "[250ms]"),
        (Granularity.ORDINAL, 5, "[5]"),
    ]
    for unit, mult, text in cases:
        assert Interval.regular(unit, mult).shorthand() == text


def test_regular_needs_positive_multiple():
    with pytest.raises(PreconditionError):
        Interval.regular(Granularity.YEAR, 0)
