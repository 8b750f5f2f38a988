"""The singleton points-to domain ``Bot ⊑ O(obj) ⊑ C(cls)`` of Figure 1.

``O(obj)`` tracks a single abstract (allocation-site) object precisely;
``C(cls)`` falls back to a class type once a variable may point to more than
one object.  The domain needs a *type hierarchy* to order ``O`` below ``C``
(an object is below exactly the classes its dynamic type is a subtype of)
and to join two ``C`` values to their least common superclass.

The hierarchy is supplied by any object implementing the
:class:`TypeHierarchy` protocol; :class:`repro.javalite.types.ClassHierarchy`
is the production implementation, and tests use small hand-rolled ones.
"""

from __future__ import annotations

from typing import Protocol

from .base import Element, Lattice, LatticeError, frozen_element


class TypeHierarchy(Protocol):
    """The queries the singleton domain needs about the class hierarchy."""

    def type_of(self, obj: str) -> str:
        """Dynamic class of an abstract object (allocation site)."""

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Reflexive subtype test."""

    def least_common_superclass(self, a: str, b: str) -> str:
        """The most precise class both ``a`` and ``b`` are subtypes of."""


@frozen_element
class O:
    """A singleton abstract object, identified by its allocation site."""

    obj: str

    def __repr__(self) -> str:
        return f"O({self.obj})"


@frozen_element
class C:
    """A class type; method resolution falls back to lookup in subclasses."""

    cls: str

    def __repr__(self) -> str:
        return f"C({self.cls})"


@frozen_element
class _SingletonBot:
    def __repr__(self) -> str:
        return "Bot"


BOT = _SingletonBot()


class SingletonLattice(Lattice):
    """``Bot ⊑ O(obj) ⊑ C(cls)`` ordered through a type hierarchy."""

    name = "singleton"

    BOT = BOT

    def __init__(self, hierarchy: TypeHierarchy):
        self.hierarchy = hierarchy

    def leq(self, a: Element, b: Element) -> bool:
        if a == BOT:
            return True
        if b == BOT:
            return False
        if isinstance(a, O) and isinstance(b, O):
            return a == b
        if isinstance(a, O) and isinstance(b, C):
            return self.hierarchy.is_subtype(self.hierarchy.type_of(a.obj), b.cls)
        if isinstance(a, C) and isinstance(b, C):
            return self.hierarchy.is_subtype(a.cls, b.cls)
        return False

    def join(self, a: Element, b: Element) -> Element:
        if a == BOT:
            return b
        if b == BOT:
            return a
        if a == b:
            return a
        return C(self.hierarchy.least_common_superclass(self._cls(a), self._cls(b)))

    def bottom(self) -> Element:
        return BOT

    def contains(self, value: Element) -> bool:
        return value == BOT or isinstance(value, (O, C))

    def _cls(self, v: Element) -> str:
        if isinstance(v, O):
            return self.hierarchy.type_of(v.obj)
        if isinstance(v, C):
            return v.cls
        raise LatticeError(f"not a singleton-domain value: {v!r}")


class DictHierarchy:
    """A :class:`TypeHierarchy` backed by plain dictionaries.

    ``parents`` maps each class to its superclass (roots map to None);
    ``obj_types`` maps abstract objects to their dynamic class.  Used by unit
    tests and the quickstart example; the javalite front end provides an
    equivalent view over real class declarations.
    """

    def __init__(self, parents: dict[str, str | None], obj_types: dict[str, str]):
        self.parents = dict(parents)
        self.obj_types = dict(obj_types)

    def type_of(self, obj: str) -> str:
        return self.obj_types[obj]

    def is_subtype(self, sub: str, sup: str) -> bool:
        node: str | None = sub
        while node is not None:
            if node == sup:
                return True
            node = self.parents.get(node)
        return False

    def least_common_superclass(self, a: str, b: str) -> str:
        ancestors = []
        node: str | None = a
        while node is not None:
            ancestors.append(node)
            node = self.parents.get(node)
        ancestor_set = set(ancestors)
        node = b
        while node is not None:
            if node in ancestor_set:
                return node
            node = self.parents.get(node)
        raise LatticeError(f"no common superclass of {a} and {b}")
