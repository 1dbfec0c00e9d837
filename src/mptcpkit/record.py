"""The two bases of the package's record types.

A record lists its fields in `__slots__`, in constructor order, and sets
them in a hand-written `__init__`, so defining one runs no generated code.
Equality and `repr` follow `_fields`: the slots, unless a class names the
leading few of them, the rest being derived from those.
"""

from operator import attrgetter


class Record:
    """A mutable record: equal to a record of its own class with equal
    fields, and never hashed."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        if fields:  # the value of one field, or the tuple of several
            cls._get = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == self._get(other)

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """An immutable record, hashed by its fields; its `__init__` sets each
    field with `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
