"""Base class of the records that validate their fields.

A validating record (``SpacetimeParams``, ``Worldline``, ``MetrologyConfig``
and the like) is a plain class with ``__slots__``: its ``__init__`` stores
each field with ``object.__setattr__`` and checks it, and this base refuses
every later assignment or deletion and gives value equality, a hash and a
repr over the slots.  Nothing is generated per class, so defining one costs
next to nothing at import; the records that check nothing are
``typing.NamedTuple``s.
"""


class Frozen:
    """An immutable record whose fields are its ``__slots__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
