"""The immutable value rule shared by the package's data classes."""

from operator import attrgetter


def _rebuild(cls, fields):
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(obj, name, value)
    return obj


class Value:
    """Immutable; equal, and hashed alike, when of one type with equal
    __slots__ fields.  Constructors set fields with object.__setattr__;
    copy and pickle rebuild an object from its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        f = self._fields
        return f(self) == f(other)

    def __hash__(self):
        return hash(self._fields(self))

    @classmethod
    def _trusted(cls, *fields):
        """An instance from valid-by-construction fields in __slots__ order,
        unchecked; tests/test_imports.py lists and checks every call site."""
        return _rebuild(cls, fields)

    def __reduce__(self):
        return _rebuild, (type(self),
                          tuple(getattr(self, s) for s in self.__slots__))
