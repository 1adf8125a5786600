"""Plain slotted value classes: the base of the package's records.

A record names its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``.  The base reads the fields from ``__slots__``
for equality, hashing and repr, so no code is generated, and no module
beyond the builtins imported, when the package is imported.
"""

# Sets a field of a frozen record, past its ``__setattr__``.
set_field = object.__setattr__


class Record:
    """Equal to a record of the same class with equal fields, unhashable,
    and shown as ``Name(field=value, ...)``."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


class Frozen(Record):
    """A record whose ``__init__`` sets each field once, with
    :func:`set_field`; it is hashable on its fields, and assigning or
    deleting a field raises ``AttributeError``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle call the constructor, as they cannot set a field.
        return type(self), self._values()
