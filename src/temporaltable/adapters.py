"""Index kinds: every table's index is read through one :class:`IndexAdapter`.

Built in are :class:`TimeIndex`, :class:`OrdinalIndex` and :class:`EmptyIndex`.
Any other value kind that maps totally onto integer ticks can serve as a table
index once its adapter is registered: academic semesters, shift numbers, survey
waves.  An adapter supplies the tick mapping plus an interval-unit token; gap
detection, filling and interval inference then work unchanged through the ticks.

Registration probes the adapter's ``sample_values`` to reject partial
orderings up front.  Re-registering a name replaces the previous adapter
(last write wins).  Register adapters during start-up, before tables are
shared across threads; the registry is the package's only mutable state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from operator import attrgetter

from .errors import RegistrationError, SchemaError
from .granularity import Granularity
from .timepoint import TimePoint


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
    cell_kind: str = "time"

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
        """Whether this adapter recognizes ``value`` as its index kind."""
        try:
            tick = self.to_ticks(value)
        except (TypeError, ValueError):
            return False
        return isinstance(tick, int) and not isinstance(tick, bool)

    def render(self, value) -> str:
        return str(value)


class TimeIndex(IndexAdapter):
    """TimePoint cells of one granularity and zone; the ticks are their own."""

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
    """The index of a table built from no rows; its kind is undetermined."""

    unit_label = None
    granularity = None
    cell_kind = "text"

    def to_ticks(self, value):  # pragma: no cover - no rows to convert
        raise SchemaError("empty table has no index values")

    def from_ticks(self, ticks):  # pragma: no cover
        raise SchemaError("empty table has no index values")


_REGISTRY: dict[str, IndexAdapter] = {}
_granularity = attrgetter("granularity")
_zone = attrgetter("zone")


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
) -> IndexAdapter:
    """The adapter for index column ``name``: ``adapter`` if given as one or
    as a registered name, else the first kind that takes every value:
    TimePoints of one granularity and zone, a registered adapter, plain ints.
    Zero values give :class:`EmptyIndex`.
    """
    if isinstance(adapter, IndexAdapter):
        return adapter
    if adapter is not None:
        ad = get_adapter(adapter)
        if ad is None:
            raise SchemaError(f"no index adapter registered under {adapter!r}")
        return ad
    present = [v for v in values if v is not None]
    if not present:
        return EmptyIndex()
    if all(isinstance(v, TimePoint) for v in present):
        # Counting compares members by identity first, so no cell runs
        # Enum's Python-level hash.
        grans = list(map(_granularity, present))
        if grans.count(grans[0]) != len(grans):
            names = ", ".join(sorted({v.granularity.value for v in present}))
            raise SchemaError(f"index column {name!r} mixes granularities: {names}")
        zones = set(map(_zone, present))
        if len(zones) > 1:
            raise SchemaError(f"index column {name!r} mixes time zones: {sorted(map(str, zones))}")
        return TimeIndex(grans[0], zones.pop())
    for ad in registered_adapters():
        if all(map(ad.claims, present)):
            return ad
    if all(isinstance(v, int) and not isinstance(v, bool) for v in present):
        return OrdinalIndex()
    raise SchemaError(
        f"index column {name!r} holds no recognized time kind "
        "(expected TimePoint, integer ticks, or a registered adapter kind)"
    )
