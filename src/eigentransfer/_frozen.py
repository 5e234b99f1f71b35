"""Immutable value base for the library's record classes.

A subclass names its fields in ``_fields`` and assigns them once in its own
``__init__`` through ``_set``.  When the subclass is defined, the base
compiles its ``_key``: a method that returns the tuple of those fields in
``_fields`` order, a one-field class included.  From that key the base
supplies what ``@dataclass(frozen=True)`` used to: equality (same class and
equal keys), ``hash`` of the key, the ``Name(field=value, ...)`` repr, copy
and pickle (which rebuild through ``__init__``), and ``AttributeError`` on
any assignment or deletion.  Subclasses that cache derived data with
``cached_property`` keep a ``__dict__``; the others declare ``__slots__``.

The key is compiled to plain attribute reads, the way ``dataclasses`` builds
its methods, so it costs what a hand-written ``_key`` did, and ``_fields`` is
the only statement of a record's field order.  Few calls reach it anyway: on
the benchmark's workloads nearly every record comparison is an identity
(``self is other``), which never reads the key.

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
        reads = "".join(f"self.{name}, " for name in cls._fields)
        namespace: dict = {}
        exec(f"def _key(self):\n    return ({reads})", namespace)
        cls._key = namespace["_key"]

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
