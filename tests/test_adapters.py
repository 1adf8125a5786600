import pytest

from temporaltable import (
    Granularity,
    IndexAdapter,
    RegistrationError,
    build,
    fill_gaps,
    get_adapter,
    has_gaps,
    register_index_adapter,
    registered_adapters,
    render_summary,
    table_to_csv,
    unregister_index_adapter,
)
from temporaltable.adapters import OrdinalIndex


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
