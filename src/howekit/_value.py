"""The immutable value rule shared by the package's data classes."""

from operator import attrgetter


class Value:
    """Immutable; equal, and hashed alike, when of one type with equal
    __slots__ fields.  Constructors set fields with object.__setattr__."""

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
