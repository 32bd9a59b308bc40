"""A read-only value record whose fields are its ``__slots__``."""


class FrozenRecord:
    """Compared and hashed field by field, in ``__slots__`` order, and equal
    only to a record of the same class; assigning to a field raises
    AttributeError.  A subclass's ``__init__`` sets its fields with _set."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(map(repr, self._fields())))

    def __setattr__(self, name, value):
        raise AttributeError("%s is read-only" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is read-only" % type(self).__name__)
