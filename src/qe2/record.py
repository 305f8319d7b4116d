"""Plain record classes with value equality.

A record class lists its fields, in constructor order, in ``_fields`` and
writes its own ``__init__``.  Records compare equal when they are of the
same class and their fields are equal, as tuples do; records of
different classes are never equal.  Mutable records are unhashable.
:class:`FrozenRecord` adds immutability and hashing for value objects.
"""

from __future__ import annotations


# sets a field of a FrozenRecord, whose own __setattr__ refuses
setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class FrozenRecord(Record):
    """An immutable, hashable record.  Subclasses name their fields in
    ``__slots__`` too and set them in ``__init__`` with :func:`setfield`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assignment
        return (type(self), self._values())
