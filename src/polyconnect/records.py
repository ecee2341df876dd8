"""Value records: plain classes with ``__slots__`` that compare, hash and
print as dataclasses do, without importing ``dataclasses`` (and ``inspect``,
``ast``, ``dis`` and ``tokenize`` with it) when the package loads.

A subclass names its fields in ``_fields``, in constructor order, lists them
(and any value it derives from them) in ``__slots__``, and sets them in
``__init__``; a Frozen one sets them with ``object.__setattr__``.
"""


class Record:
    """Equal to a record of the same class with equal fields, never to
    anything else; repr ``Name(field=value, ...)``, or object's default repr
    where a field holds an integer past the interpreter's int-to-string
    digit limit, so a repr never raises.  Unhashable, as a dataclass with
    ``eq`` and without ``frozen`` is."""

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
            return object.__repr__(self)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, self._values()


class Frozen(Record):
    """A Record that cannot be changed after ``__init__``: assigning or
    deleting an attribute raises AttributeError.  Hashed by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
