import io

import pytest
from hypothesis import given, strategies as st

from temporaltable import (
    Granularity,
    IndexAdapter,
    RegistrationError,
    SchemaError,
    build,
    fill_gaps,
    get_adapter,
    has_gaps,
    index_by,
    join,
    register_index_adapter,
    registered_adapters,
    render_summary,
    table_to_csv,
    unregister_index_adapter,
)
from temporaltable.adapters import EmptyIndex, OrdinalIndex, resolve_index


class Semester:
    """A school semester: (year, 1) or (year, 2)."""

    def __init__(self, year, sem):
        self.year = year
        self.sem = sem

    def __eq__(self, other):
        return isinstance(other, Semester) and (self.year, self.sem) == (other.year, other.sem)

    def __hash__(self):
        return hash((self.year, self.sem))

    def __repr__(self):
        return f"Semester({self.year}, {self.sem})"


class SemesterAdapter(IndexAdapter):
    name = "semester"
    unit_label = "sem"
    sample_values = (Semester(2019, 1), Semester(2019, 2), Semester(2020, 1))

    def to_ticks(self, value):
        if not isinstance(value, Semester) or value.sem not in (1, 2):
            raise TypeError(f"not a semester: {value!r}")
        return 2 * value.year + (value.sem - 1)

    def from_ticks(self, ticks):
        y, s = divmod(ticks, 2)
        return Semester(y, s + 1)


@pytest.fixture
def semester_registry():
    register_index_adapter(SemesterAdapter())
    yield
    unregister_index_adapter("semester")


def test_semester_table_builds(semester_registry):
    t = build(
        {
            "term": [Semester(2019, 1), Semester(2019, 2), Semester(2020, 1)],
            "enrolled": [140, 121, 155],
        },
        index="term",
    )
    assert t.interval.shorthand() == "[1sem]"
    assert t.adapter.granularity is Granularity.ORDINAL
    assert [v.sem for v in t.column("term")] == [1, 2, 1]


def test_semester_gaps_work_through_ticks(semester_registry):
    # The adjacent 2019 pair pins the interval to one semester, so the
    # missing first semester of 2020 is a genuine gap.
    t = build(
        {
            "term": [Semester(2019, 1), Semester(2019, 2), Semester(2020, 2)],
            "n": [1, 2, 3],
        },
        index="term",
    )
    assert t.interval.shorthand() == "[1sem]"
    assert has_gaps(t) == [((), True)]
    filled = fill_gaps(t)
    assert filled.column("term") == [
        Semester(2019, 1),
        Semester(2019, 2),
        Semester(2020, 1),
        Semester(2020, 2),
    ]
    assert filled.column("n") == [1, 2, None, 3]


# Each join of the semester table below with two semesters of its own:
# (semesters, n, w, interval); semi and anti add no "w".
SEMESTER_JOINS = {
    "left": ([(2019, 1), (2019, 2), (2020, 1)], [140, 121, 155], [None, 1.5, None], "[1sem]"),
    "right": ([(2019, 2), (2020, 2)], [121, None], [1.5, 2.5], "[2sem]"),
    "inner": ([(2019, 2)], [121], [1.5], "[?]"),
    "full": ([(2019, 1), (2019, 2), (2020, 1), (2020, 2)], [140, 121, 155, None],
             [None, 1.5, None, 2.5], "[1sem]"),
    "semi": ([(2019, 2)], [121], None, "[?]"),
    "anti": ([(2019, 1), (2020, 1)], [140, 155], None, "[2sem]"),
}


@pytest.mark.parametrize("kind", SEMESTER_JOINS)
def test_joins_match_an_adapters_own_values(semester_registry, kind):
    # Semesters are none of the library's cell kinds: they match each other
    # by equality, and no column typing reads the join column's cells.
    terms, n, w, interval = SEMESTER_JOINS[kind]
    t = build({"term": [Semester(2019, 1), Semester(2019, 2), Semester(2020, 1)],
               "n": [140, 121, 155]}, "term")
    out = join(t, {"term": [Semester(2019, 2), Semester(2020, 2)], "w": [1.5, 2.5]}, kind).table
    added = [] if w is None else [("w", w)]
    assert out.to_dict() == {"term": [Semester(*s) for s in terms], "n": n, **dict(added)}
    assert out.schema == [("term", "time"), ("n", "int"), *[(c, "real") for c, _ in added]]
    assert type(out.adapter) is SemesterAdapter
    assert out.interval.shorthand() == interval


@pytest.mark.parametrize("kind", SEMESTER_JOINS)
def test_a_right_hand_index_of_adapter_values_must_be_a_join_column(semester_registry, kind):
    # Off the join columns, the semesters would land in a plain column,
    # which holds only the library's cell kinds: refused before matching.
    t = build({"t": [1, 2], "n": [10, 20]}, "t")
    terms = build({"term": [Semester(2019, 1), Semester(2019, 2)], "n": [10, 30]}, "term")
    with pytest.raises(SchemaError, match=(
        "^the right-hand index 'term' is no join column, and it holds its adapter's "
        "values, which only an index can hold; join on it$"
    )):
        join(t, terms, kind, by=["n"])
    # Joined on the index, the semesters match as before.
    u = build({"term": [Semester(2019, 2)], "w": [1.5]}, "term")
    rows = {"left": 1, "right": 2, "inner": 1, "full": 2, "semi": 1, "anti": 0}
    assert join(u, terms, kind).table.nrows == rows[kind]


def test_reregistering_replaces_without_error(semester_registry):
    class Replacement(SemesterAdapter):
        unit_label = "semester"

    register_index_adapter(Replacement())
    try:
        assert get_adapter("semester").unit_label == "semester"
    finally:
        register_index_adapter(SemesterAdapter())


def test_partial_ordering_rejected():
    class Partial(SemesterAdapter):
        name = "partial"

        def to_ticks(self, value):
            if value.sem == 2:
                raise TypeError("cannot order second semesters")
            return 2 * value.year

    with pytest.raises(RegistrationError):
        register_index_adapter(Partial())
    assert get_adapter("partial") is None


class _Nameless(SemesterAdapter):
    name = ""


class _Unsampled(SemesterAdapter):
    name = "unsampled"
    sample_values = ()


@pytest.mark.parametrize("adapter, message", [
    (OrdinalIndex, "adapter must be an IndexAdapter instance"),
    (_Nameless(), "adapter must declare a non-empty name"),
    (_Unsampled(), "adapter 'unsampled' must provide sample_values for validation"),
])
def test_registration_refuses_an_adapter_it_cannot_probe(adapter, message):
    with pytest.raises(RegistrationError, match=message):
        register_index_adapter(adapter)
    assert get_adapter("unsampled") is None


def test_non_integer_ticks_rejected():
    class Fractional(SemesterAdapter):
        name = "fractional"

        def to_ticks(self, value):
            return value.year + value.sem / 2

    with pytest.raises(RegistrationError):
        register_index_adapter(Fractional())


def test_bad_round_trip_rejected():
    class Lossy(SemesterAdapter):
        name = "lossy"

        def from_ticks(self, ticks):
            return Semester(ticks // 2, 1)

    with pytest.raises(RegistrationError):
        register_index_adapter(Lossy())


def test_registry_listing(semester_registry):
    names = [a.name for a in registered_adapters()]
    assert "semester" in names


def test_claims_reads_only_type_and_value_errors_as_not_mine():
    class Lookup(SemesterAdapter):
        """Looks years up in a table that misses 2021: a bug, not a kind."""

        name = "lookup"
        first_tick = {2019: 0, 2020: 2}

        def to_ticks(self, value):
            if not isinstance(value, Semester):
                raise TypeError(f"not a semester: {value!r}")
            if value.sem not in (1, 2):
                raise ValueError(f"no semester {value.sem}")
            return self.first_tick[value.year] + value.sem - 1

        def from_ticks(self, ticks):
            return Semester(2019 + ticks // 2, ticks % 2 + 1)

    register_index_adapter(Lookup())
    try:
        lookup = get_adapter("lookup")
        assert not lookup.claims(2)
        assert not lookup.claims(Semester(2019, 3))
        with pytest.raises(KeyError):
            build({"term": [Semester(2019, 1), Semester(2021, 1)]}, index="term")
        assert type(build({"term": [1, 2]}, index="term").adapter) is OrdinalIndex
    finally:
        unregister_index_adapter("lookup")


def test_csv_writes_index_cells_as_the_adapter_renders_them():
    class Named(SemesterAdapter):
        def render(self, value):
            return f"{value.year}-S{value.sem}"

    t = build({"term": [Semester(2019, 2), Semester(2019, 1)], "n": [5, 4]}, "term",
              adapter=Named())
    assert table_to_csv(t) == "term,n\n2019-S1,4\n2019-S2,5\n"
    assert "2019-S1" in render_summary(t)


def test_csv_renders_an_adapter_index_once_per_distinct_tick():
    # The index is keyed by its stored ticks: a term that every series
    # repeats is rendered once, and a text with a comma is quoted.
    class Named(SemesterAdapter):
        def __init__(self):
            self.rendered = []

        def render(self, value):
            self.rendered.append(self.to_ticks(value))
            return f"{value.year}, S{value.sem}"

    ad = Named()
    terms = [Semester(2019, 1), Semester(2019, 2), Semester(2020, 1)]
    t = build({"k": ["a"] * 3 + ["b"] * 2, "term": terms + terms[1:], "n": [1, 2, 3, 4, 5]},
              "term", ("k",), adapter=ad)
    assert table_to_csv(t) == (
        'k,term,n\na,"2019, S1",1\na,"2019, S2",2\na,"2020, S1",3\n'
        'b,"2019, S2",4\nb,"2020, S1",5\n'
    )
    assert sorted(ad.rendered) == [4038, 4039, 4040]


def test_an_adapter_render_error_reaches_the_writers_caller_as_raised():
    # Only an int or a time point with no text becomes a SchemaError; the
    # adapter's own error passes through unchanged, and nothing is written.
    class Unwritable(SemesterAdapter):
        def render(self, value):
            if value.year == 2020:
                self.raised = ValueError(f"no text for {value!r}")
                raise self.raised
            return super().render(value)

    ad = Unwritable()
    t = build({"term": [Semester(2019, 1), Semester(2020, 1)], "n": [1, 2]}, "term", adapter=ad)
    buf = io.StringIO()
    with pytest.raises(ValueError) as info:
        table_to_csv(t, buf)
    assert (info.value, str(info.value), buf.getvalue()) == (
        ad.raised, "no text for Semester(2020, 1)", "")
    with pytest.raises(ValueError) as info:
        render_summary(t)
    assert info.value is ad.raised


class _CountingSemesters(SemesterAdapter):
    """Counts its ``to_ticks`` calls."""

    name = "counting"
    calls = 0

    def to_ticks(self, value):
        self.calls += 1
        return super().to_ticks(value)


@pytest.fixture
def counting():
    spy = _CountingSemesters()
    register_index_adapter(spy)
    spy.calls = 0  # registration probes the samples
    yield spy
    unregister_index_adapter("counting")


_TERMS = [Semester(y, s) for y in range(2010, 2020) for s in (1, 2)]


def test_a_probed_build_converts_each_cell_once(counting):
    t = build({"term": _TERMS[::-1], "n": list(range(len(_TERMS)))}, "term")
    assert t.adapter is counting
    # One probe of the first cell through claims, then one call per cell.
    assert counting.calls <= len(_TERMS) + 1


def test_a_build_given_its_adapter_converts_each_cell_once(counting):
    build({"term": _TERMS[::-1], "n": list(range(len(_TERMS)))}, "term", adapter=counting)
    assert counting.calls == len(_TERMS)


def test_index_by_a_callable_converts_each_derived_cell_once(counting):
    # Two series over the same six ticks: six cells to derive.
    t = build({"k": ["a", "b"] * 6, "t": [n // 2 for n in range(12)]}, "t", ["k"])
    counting.calls = 0
    index_by(t, lambda n: Semester(2019 + n // 2, 1 + n % 2), "term")
    assert counting.calls <= 6 + 1


class _Picky(IndexAdapter):
    """Ticks a cell by its value (an int) or its length (a str), except
    that it refuses the cells in ``refused`` by raising the exception
    class mapped to each, and gives the cells in ``bad`` the tick mapped to
    each."""

    unit_label = "p"
    sample_values = (10, 11)

    def __init__(self, name, refused, bad):
        self.name = name
        self.refused = refused
        self.bad = bad

    def to_ticks(self, value):
        for cell, error in self.refused:
            if cell == value:
                raise error(f"not mine: {value!r}")
        for cell, tick in self.bad:
            if cell == value:
                return tick
        return value if isinstance(value, int) else len(value)

    def from_ticks(self, ticks):
        return ticks


def _resolution_by_the_old_rule(values):
    """The adapter and ticks ``resolve_index`` gave when it asked every
    registered adapter's ``claims`` about every present cell, or
    SchemaError.  No cell here is a TimePoint."""
    present = [v for v in values if v is not None]
    if not present:
        return EmptyIndex, list(values)
    for ad in registered_adapters():
        if all(map(ad.claims, present)):
            return ad, [None if v is None else ad.to_ticks(v) for v in values]
    if all(isinstance(v, int) and not isinstance(v, bool) for v in present):
        return OrdinalIndex, list(values)
    return SchemaError, None


_CELLS = st.sampled_from([0, 1, 2, 3, 7, True, "a", "bb", None])
_PICKY = st.builds(
    lambda refused, bad: (refused, bad),
    st.lists(st.tuples(_CELLS, st.sampled_from([TypeError, ValueError])), max_size=2),
    st.lists(st.tuples(_CELLS, st.sampled_from([True, False, 0.5, 2.0])), max_size=1),
)


@given(st.lists(_CELLS, max_size=8), _PICKY, _PICKY)
def test_resolution_agrees_with_asking_claims_of_every_cell(values, first, second):
    adapters = [_Picky("picky-1", *first), _Picky("picky-2", *second)]
    for ad in adapters:
        register_index_adapter(ad)
    try:
        want, want_ticks = _resolution_by_the_old_rule(values)
        if want is SchemaError:
            with pytest.raises(SchemaError, match="holds no recognized time kind"):
                resolve_index("t", values)
            return
        ad, ticks = resolve_index("t", values)
        assert ad is want if isinstance(want, IndexAdapter) else type(ad) is want
        assert ticks == want_ticks
        assert [type(tk) for tk in ticks] == [type(tk) for tk in want_ticks]
    finally:
        for ad in adapters:
            unregister_index_adapter(ad.name)


@pytest.mark.parametrize("row", [0, 1, 2])
def test_an_adapter_bug_propagates_out_of_build(row):
    class Broken(SemesterAdapter):
        name = "broken"

        def to_ticks(self, value):
            if value == _TERMS[row] and self.armed:
                raise RuntimeError("lookup table not loaded")
            return super().to_ticks(value)

    broken = Broken()
    broken.armed = False
    register_index_adapter(broken)
    broken.armed = True
    try:
        with pytest.raises(RuntimeError, match="lookup table not loaded"):
            build({"term": _TERMS[:3]}, "term")
    finally:
        unregister_index_adapter("broken")
