"""Immutable value base for the library's record classes.

A subclass names its fields in ``_fields``, assigns them once in its own
``__init__`` through ``_set``, and returns their values in the same order
from ``_key``.  The base then supplies what ``@dataclass(frozen=True)`` used
to: equality (same class and equal keys), ``hash`` of the key, the
``Name(field=value, ...)`` repr, copy and pickle (which rebuild through
``__init__``), and ``AttributeError`` on any assignment or deletion.
Subclasses that cache derived data with ``cached_property`` keep a
``__dict__``; the others declare ``__slots__``.

``_key`` is written out per class rather than read from ``_fields`` by
``getattr``, because equality of shapes and characters sits on hot paths and
a generic key costs several times more per comparison.
"""

from __future__ import annotations

_set = object.__setattr__


class FrozenValue:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._key()
