"""Immutable value base for the library's record classes.

A subclass names its fields in ``_fields`` and assigns them once in its own
constructor through ``_set``.  On a class's first ``_key`` call the base
compiles its ``_key``: a function of plain attribute reads, the way
``dataclasses`` builds its methods, that returns the tuple of those fields in
``_fields`` order, a one-field class included; ``_fields`` is the only
statement of a record's field order.  ``__init_subclass__`` resets ``_key``
for every subclass, so each class compiles its own.  From that key the base
supplies equality (same class and equal keys), ``hash`` of the key, the
``Name(field=value, ...)`` repr, copy and pickle (which rebuild through the
class, so an interned ``GroupShape`` comes back as itself), and
``AttributeError`` on any assignment or deletion.
``GroupShape``, which stores its derived tables as plain attributes, and the
subclasses that cache derived data with ``cached_property`` keep a
``__dict__``; the others declare ``__slots__``.

The two hot unvalidated constructors, ``monomial._make`` (with the product
branch of ``Monomial.__mul__``) and ``tori.UnramifiedCharacter._new``, skip
``_set``: they write their slots through the slots' member descriptors,
``Cls.field.__set__`` bound once at module level, which is cheaper than a
named ``object.__setattr__`` call.
"""

from __future__ import annotations

_set = object.__setattr__


class FrozenValue:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = FrozenValue._key

    def _key(self) -> tuple:
        reads = "".join(f"self.{name}, " for name in self._fields)
        key = type(self)._key = eval(f"lambda self: ({reads})")
        return key(self)

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
