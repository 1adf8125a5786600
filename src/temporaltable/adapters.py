"""Index kinds: every table's index is read through one :class:`IndexAdapter`.

Built in are :class:`TimeIndex`, :class:`OrdinalIndex` and :class:`EmptyIndex`.
Any other value kind that maps totally onto integer ticks can serve as a table
index once its adapter is registered: academic semesters, shift numbers, survey
waves.  An adapter supplies the tick mapping plus an interval-unit token; gap
detection, filling and interval inference then work unchanged through the ticks.

Registration probes the adapter's ``sample_values`` to reject partial
orderings up front.  Re-registering a name replaces the previous adapter
(last write wins).  Register adapters during start-up, before tables are
shared across threads.  The registry is the package's only mutable state
besides ``table._row_maker``'s cache of compiled row constructors, which is
keyed by row width alone: two threads racing on a new width at worst
compile its constructor twice, and either one builds the same rows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from operator import attrgetter

from .errors import RegistrationError, SchemaError
from .granularity import Granularity
from .timepoint import TimePoint, _is_utc


class IndexAdapter(ABC):
    """Maps raw index values of one kind to and from integer ticks.

    Subclasses set ``name`` (registry key), ``unit_label`` (interval display
    token, e.g. "sem" renders as "[1sem]") and ``sample_values`` (non-empty;
    probed at registration).  ``from_ticks`` must invert ``to_ticks`` so that
    gap filling can synthesize missing index values.  User adapters keep the
    defaults of ``granularity``, ``zone`` and ``cell_kind`` (the column kind).
    """

    name: str = ""
    unit_label: str | None = ""
    sample_values: Sequence = ()
    granularity: Granularity | None = Granularity.ORDINAL
    zone: str | None = None
    cell_kind: str | None = "time"

    @abstractmethod
    def to_ticks(self, value) -> int:
        """Total order: every acceptable value maps to one integer tick.

        Raise TypeError or ValueError for a value of another kind; :meth:`claims`
        reads only those as "not mine" and lets adapter bugs propagate.
        """

    @abstractmethod
    def from_ticks(self, ticks: int):
        """Inverse mapping used when materializing missing index values."""

    def claims(self, value) -> bool:
        """Whether this adapter recognizes ``value`` as its index kind.

        ``resolve_index`` asks this of a column's first present cell only,
        as a cheap probe, then converts every cell once with
        :meth:`to_ticks`, reading the same errors and ticks as "not mine".
        """
        try:
            tick = self.to_ticks(value)
        except (TypeError, ValueError):
            return False
        return isinstance(tick, int) and not isinstance(tick, bool)

    def render(self, value) -> str:
        return str(value)


class TimeIndex(IndexAdapter):
    """TimePoint cells of one calendar granularity and zone; the ticks are
    their own.  An ordinal index is :class:`OrdinalIndex`, plain ints."""

    unit_label = None

    def __init__(self, granularity: Granularity, zone: str | None):
        self.granularity = granularity
        self.zone = zone

    def to_ticks(self, value):
        return value.ticks

    def from_ticks(self, ticks):
        return TimePoint(ticks, self.granularity, self.zone)

    def render(self, value):
        return value.render()


class OrdinalIndex(IndexAdapter):
    """Plain integer cells that are their own ticks."""

    unit_label = None
    cell_kind = "int"

    def to_ticks(self, value):
        return value

    def from_ticks(self, ticks):
        return ticks


class EmptyIndex(IndexAdapter):
    """The index of a table built from no rows; its kind is undetermined,
    so its column has kind None, as any column with no present cell."""

    unit_label = None
    granularity = None
    cell_kind = None

    def to_ticks(self, value):  # pragma: no cover - no rows to convert
        raise SchemaError("empty table has no index values")

    def from_ticks(self, ticks):  # pragma: no cover
        raise SchemaError("empty table has no index values")


_REGISTRY: dict[str, IndexAdapter] = {}
_granularity = attrgetter("granularity")
_zone = attrgetter("zone")
_ticks = attrgetter("ticks")


def register_index_adapter(adapter: IndexAdapter) -> None:
    """Validate and register an adapter; replaces any adapter of the same name."""
    if not isinstance(adapter, IndexAdapter):
        raise RegistrationError("adapter must be an IndexAdapter instance")
    if not adapter.name:
        raise RegistrationError("adapter must declare a non-empty name")
    if not adapter.sample_values:
        raise RegistrationError(
            f"adapter {adapter.name!r} must provide sample_values for validation"
        )
    for v in adapter.sample_values:
        try:
            tick = adapter.to_ticks(v)
        except Exception as exc:
            raise RegistrationError(
                f"adapter {adapter.name!r} rejected: to_ticks failed on sample "
                f"{v!r} ({exc}); the ordering must be total"
            ) from exc
        if not isinstance(tick, int) or isinstance(tick, bool):
            raise RegistrationError(
                f"adapter {adapter.name!r} rejected: to_ticks({v!r}) returned "
                f"{tick!r}, not an integer; the ordering must be total"
            )
        back = adapter.from_ticks(tick)
        if back != v:
            raise RegistrationError(
                f"adapter {adapter.name!r} rejected: from_ticks(to_ticks({v!r})) "
                f"returned {back!r}; the mapping must round-trip"
            )
    _REGISTRY[adapter.name] = adapter


def unregister_index_adapter(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_adapter(name: str) -> IndexAdapter | None:
    return _REGISTRY.get(name)


def registered_adapters() -> list[IndexAdapter]:
    """Registered adapters in registration order."""
    return list(_REGISTRY.values())


def resolve_index(
    name: str, values: Sequence, adapter: str | IndexAdapter | None = None
) -> tuple[IndexAdapter, list]:
    """The adapter for index column ``name`` and the ticks of ``values``
    through it: one tick per value, None for a missing one, and each cell
    converted once.

    ``adapter``, given as one or as a registered name, converts every
    present cell, and a tick that is no int (a bool is none) raises
    SchemaError naming its cell.  Otherwise the first kind that takes every
    value: TimePoints of one granularity and zone, a registered adapter,
    plain ints.  A registered adapter is probed with
    :meth:`~IndexAdapter.claims` on the first present cell, then converts
    every cell once.  A ``TypeError`` or ``ValueError``, or a tick that is
    no int, passes the column on to the next kind; any other exception
    propagates.  Zero present values give :class:`EmptyIndex`.  None and
    any case of "UTC" are one zone, and an index that spells it more than
    one way reads as None.
    """
    types = set(map(type, values))
    present = [v for v in values if v is not None] if type(None) in types else values
    types.discard(type(None))
    if adapter is not None:
        ad = adapter if isinstance(adapter, IndexAdapter) else get_adapter(adapter)
        if ad is None:
            raise SchemaError(f"no index adapter registered under {adapter!r}")
        ticks = list(map(ad.to_ticks, present))
        if not _all_ints(set(map(type, ticks))):
            bad = next(v for v, tk in zip(present, ticks) if not _all_ints((type(tk),)))
            raise SchemaError(f"index value {bad!r} does not map to integer ticks")
        return ad, _with_missing(ticks, values)
    if not types:
        return EmptyIndex(), list(values)
    if all(issubclass(tp, TimePoint) for tp in types):
        gran = one_granularity(f"index column {name!r}", present)
        zones = set(map(_zone, present))
        if len(zones) > 1 and not all(map(_is_utc, zones)):
            raise SchemaError(f"index column {name!r} mixes time zones: {sorted(map(str, zones))}")
        ad = TimeIndex(gran, zones.pop() if len(zones) == 1 else None)
        return ad, _with_missing(list(map(_ticks, present)), values)
    for ad in registered_adapters():
        if not ad.claims(present[0]):
            continue
        try:
            ticks = list(map(ad.to_ticks, present))
        except (TypeError, ValueError):
            continue
        if _all_ints(set(map(type, ticks))):
            return ad, _with_missing(ticks, values)
    if _all_ints(types):
        return OrdinalIndex(), list(values)
    raise SchemaError(
        f"index column {name!r} holds no recognized time kind "
        "(expected TimePoint, integer ticks, or a registered adapter kind)"
    )


def one_granularity(column: str, cells: Iterable[TimePoint]) -> Granularity | None:
    """The one granularity of the present TimePoint ``cells`` of ``column``
    (None for no cell): a time column that mixes them raises SchemaError."""
    grans = set(map(_granularity, cells))
    if len(grans) > 1:
        names = ", ".join(sorted(g.value for g in grans))
        raise SchemaError(f"{column} mixes granularities: {names}")
    return next(iter(grans), None)


def _all_ints(types) -> bool:
    # bool subclasses int but is no tick; subclasses of int otherwise are.
    return all(issubclass(tp, int) and tp is not bool for tp in types)


def _with_missing(ticks: list, values: Sequence) -> list:
    """``ticks``, one per present cell of ``values``, with None put back
    at each missing cell's place."""
    if len(ticks) == len(values):
        return ticks
    it = iter(ticks)
    return [None if v is None else next(it) for v in values]
