"""Immutable value types with named fields.

A subclass lists its fields in `__slots__` (a leading underscore marks a slot
that is not a field) and any defaults in `_DEFAULTS`. Instances compare equal
when their types and field values are equal, hash as the tuple of their
field values, refuse assignment, print as Name(field=value, ...) and give
{field: value} in declaration order by `_asdict`.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _FIELDS: tuple = ()
    _DEFAULTS: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in vars(cls):
            cls._FIELDS = cls._FIELDS + tuple(
                name for name in cls.__slots__ if not name.startswith("_")
            )
            # one getter per class; attrgetter of one name gives a bare value
            get = attrgetter(*cls._FIELDS) if cls._FIELDS else lambda self: ()
            if len(cls._FIELDS) == 1:
                cls._values = lambda self: (get(self),)
            else:
                cls._values = lambda self: get(self)

    def __init__(self, *args, **kwargs):
        names = self._FIELDS
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes at most {len(names)} arguments")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__} got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                value = values[name]
            elif name in self._DEFAULTS:
                value = self._DEFAULTS[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing argument {name!r}")
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        """The field values in declaration order."""
        return ()

    def _asdict(self) -> dict:
        return dict(zip(self._FIELDS, self._values()))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"
