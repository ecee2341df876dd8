"""Value records: plain classes with ``__slots__`` that compare, hash and
print as dataclasses do, without importing ``dataclasses`` (and ``inspect``,
``ast``, ``dis`` and ``tokenize`` with it) when the package loads.

A subclass names its fields in ``_fields``, in constructor order, lists them
(and any value it derives from them) in ``__slots__``, and sets them in
``__init__``: a mutable one by assignment, a Frozen one with ``_fill``, the
one place a slot of a Frozen record is ever written, once, at birth.
"""

from .rationals import past_limit


class Record:
    """Equal to a record of the same class with equal fields, never to
    anything else; repr ``Name(field=value, ...)``, or "<Name past the
    int-to-string digit limit>" where a field holds an integer past the
    interpreter's digit limit, so a repr never raises.  Unhashable, as a
    dataclass with ``eq`` and without ``frozen`` is."""

    __slots__ = ()
    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        try:
            fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        except ValueError:  # an int past sys.get_int_max_str_digits()
            return past_limit(self)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, self._values()


class Frozen(Record):
    """A Record whose slots are written once, by _fill, and never again:
    assigning or deleting an attribute raises AttributeError.  Hashed by its
    fields."""

    __slots__ = ()

    def _fill(self, *values):
        """Set the slots to values in __slots__ order and return self, so
        cls.__new__(cls)._fill(...) builds a record without __init__."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
