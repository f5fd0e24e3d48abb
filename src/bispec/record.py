"""Immutable value records.

``Record`` is the base of the package's value classes.  It gives a
``__slots__`` class what a frozen dataclass gave it, without generating
and compiling code when the class is created: a constructor that binds
arguments to the fields, field-wise ``==`` and ``hash``, a
``Name(field=value, ...)`` repr, and assignment that raises.  It also
gives the ring value classes (``rational.RatFunc``, ``diffop.DiffOp``,
``diffop.TOp`` and the series ``rational.LaurentTail`` and
``bounded.PDO``) their one unchecked constructor, ``_trusted``.
"""

from __future__ import annotations


class Record:
    """Immutable record whose fields are the names in ``__slots__``.

    A subclass lists its fields in ``__slots__`` (constructor order) and
    may give default values in ``_defaults``.  The generic constructor
    binds positional and keyword arguments to the fields and then calls
    ``__post_init__``, where a subclass checks or normalizes its fields
    (writing them with ``object.__setattr__``).  A class whose public
    constructor coerces or reduces writes its own ``__init__``; its
    arithmetic wraps results it knows are canonical with ``_trusted``.

    Two records are equal when they are of the same class and their fields
    are equal; they hash by their fields, so a record with an unhashable
    field is unhashable.  Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments, {len(args)} given")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected or repeated "
                            f"arguments {sorted(kwargs)}")
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """A record whose first fields, in ``__slots__`` order, are
        ``values``, with no check: the caller hands values that already
        meet the class's invariant.  Fields past ``values`` stay unset
        (``RatFunc`` keeps its derivative cache there)."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
