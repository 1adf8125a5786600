"""Custom index kinds via registered adapters.

Any value kind that maps totally onto integer ticks can serve as a table
index: academic semesters, shift numbers, survey waves.  An adapter supplies
the tick mapping plus an interval-unit token; gap detection, filling and
interval inference then work unchanged through the ticks.

Registration probes the adapter's ``sample_values`` to reject partial
orderings up front.  Re-registering a name replaces the previous adapter
(last write wins).  Register adapters during start-up, before tables are
shared across threads; the registry is the package's only mutable state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from .errors import RegistrationError


class IndexAdapter(ABC):
    """Maps raw index values of one kind to and from integer ticks.

    Subclasses set ``name`` (registry key), ``unit_label`` (interval display
    token, e.g. "sem" renders as "[1sem]") and ``sample_values`` (non-empty;
    probed at registration).  ``from_ticks`` must invert ``to_ticks`` so that
    gap filling can synthesize missing index values.
    """

    name: str = ""
    unit_label: str = ""
    sample_values: Sequence = ()

    @abstractmethod
    def to_ticks(self, value) -> int:
        """Total order: every acceptable value maps to one integer tick."""

    @abstractmethod
    def from_ticks(self, ticks: int):
        """Inverse mapping used when materializing missing index values."""

    def claims(self, value) -> bool:
        """Whether this adapter recognizes ``value`` as its index kind."""
        try:
            tick = self.to_ticks(value)
        except Exception:
            return False
        return isinstance(tick, int) and not isinstance(tick, bool)

    def render(self, value) -> str:
        return str(value)


_REGISTRY: dict[str, IndexAdapter] = {}


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
