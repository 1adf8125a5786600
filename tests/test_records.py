"""The package's record classes keep the value semantics of their fields:
constructor signature, equality and hash, repr, and frozenness."""

import copy
import inspect
import pickle

import pytest

from temporaltable import (
    Column,
    DuplicateReport,
    GapReport,
    Granularity,
    IngestConfig,
    Interval,
    TemporalTable,
    TimePoint,
    VerbOutcome,
    Window,
    build,
    group_by,
    timepoint as tp,
)
from temporaltable.table import Grouping, replace

E = inspect.Parameter.empty
YEAR = Granularity.YEAR


def _table(v=1):
    return build({"k": ["a", "a"], "y": [tp.year(2020), tp.year(2021)], "v": [v, 2]}, "y", ["k"])


# (class, constructor parameters as (name, default), maker of an instance
# from a field value that tells instances apart, frozen, hashable, repr of
# maker(0) or None)
CASES = [
    (
        TimePoint,
        [("ticks", E), ("granularity", E), ("zone", None)],
        lambda x: TimePoint(x, YEAR),
        True,
        True,
        "TimePoint('1970', 'year')",
    ),
    (
        Interval,
        [("form", E), ("unit", None), ("multiple", None), ("unit_label", None)],
        lambda x: Interval("regular", YEAR, x + 1),
        True,
        True,
        "Interval(form='regular', unit=Granularity.YEAR, multiple=1, unit_label=None)",
    ),
    (
        Window,
        [("size", E), ("step", 1), ("partial", False)],
        lambda x: Window(x + 1),
        True,
        True,
        "Window(size=1, step=1, partial=False)",
    ),
    (
        Grouping,
        [("by", ()), ("index_name", None), ("index_rule", None)],
        lambda x: Grouping(("k",), "period", (YEAR, Granularity.QUARTER)[x]),
        True,
        True,
        "Grouping(by=('k',), index_name='period', index_rule=Granularity.YEAR)",
    ),
    (
        VerbOutcome,
        [("table", E), ("warnings", ())],
        lambda x: VerbOutcome(_table(), (f"w{x}",)),
        True,
        False,  # its table is unhashable
        None,
    ),
    (
        Column,
        [("kind", E), ("values", E)],
        lambda x: Column("int", [x]),
        False,
        False,
        "Column(kind='int', values=[0])",
    ),
    (
        DuplicateReport,
        [("index", E), ("key", E), ("rows", E), ("positions", E)],
        lambda x: DuplicateReport("t", ("k",), [{"t": x}], [x]),
        False,
        False,
        "DuplicateReport(index='t', key=('k',), rows=[{'t': 0}], positions=[0])",
    ),
    (
        GapReport,
        [("key_names", E), ("index_name", E), ("entries", E)],
        lambda x: GapReport(("k",), "t", [(("a",), x, x, 1)]),
        False,
        False,
        "GapReport(key_names=('k',), index_name='t', entries=[(('a',), 0, 0, 1)])",
    ),
    (
        IngestConfig,
        [("path", E), ("index", E), ("key", ()), ("regular", True), ("time_format", None),
         ("zone", None), ("delimiter", ",")],
        lambda x: IngestConfig(f"{x}.csv", "t"),
        False,
        False,
        "IngestConfig(path='0.csv', index='t', key=(), regular=True, time_format={}, "
        "zone=None, delimiter=',')",
    ),
    (
        TemporalTable,
        [("columns", E), ("index", E), ("key", E), ("interval", E), ("declared_regular", E),
         ("adapter", E), ("groups", None), ("_ticks", None), ("_ends", None)],
        _table,
        False,
        False,
        "<TemporalTable 2 x 3 [1Y] index='y' key=['k']>",
    ),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_value_semantics(case):
    cls, params, make, frozen, hashable, text = case
    sig = inspect.signature(cls)
    assert [(p.name, p.default) for p in sig.parameters.values()] == params
    assert {p.kind for p in sig.parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    a, b, other = make(0), make(0), make(1)
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    if text is not None:
        assert repr(a) == text

    fields = [name for name, _ in params]
    for name in fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        else:
            setattr(a, name, getattr(other, name))
    assert (a == b) is frozen
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    if frozen:
        assert copy.copy(b) == b and pickle.loads(pickle.dumps(b)) == b


def test_timepoint_equality_ignores_zone():
    utc = TimePoint(100, Granularity.HOUR)
    kolkata = TimePoint(100, Granularity.HOUR, "Asia/Kolkata")
    assert utc == kolkata and hash(utc) == hash(kolkata)
    assert utc != TimePoint(100, Granularity.MINUTE)
    assert copy.copy(kolkata).zone == "Asia/Kolkata"


def test_ingest_config_time_formats_are_not_shared():
    a, b = IngestConfig("a.csv", "t"), IngestConfig("b.csv", "t")
    a.time_format["t"] = "day"
    assert b.time_format == {}


def test_replace_derives_a_table_or_a_grouping():
    t = group_by(_table(), "k")
    irregular = replace(t, declared_regular=False)
    assert not irregular.declared_regular and t.declared_regular
    for name in TemporalTable.__slots__:
        if name != "declared_regular":
            assert getattr(irregular, name) is getattr(t, name), name
    groups = replace(t.groups, index_name="decade")
    assert groups == Grouping(("k",), "decade") and t.groups == Grouping(("k",))
    with pytest.raises(TypeError):
        replace(t, nrows=3)
