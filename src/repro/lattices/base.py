"""Core lattice abstractions.

The paper (Section 4.3, ASM2) only requires *partial orders equipped with a
well-behaving binary aggregation operator*:

  (i)   the operator is associative and commutative,
  (ii)  it respects the partial order: the result of aggregating a multiset
        of aggregands must dominate every aggregand,
  (iii) repeated application reaches a stationary value in finitely many
        steps even on infinite domains (i.e. the operator is a widening).

We model this with two layers:

* :class:`Lattice` — a *domain object* describing a partial order with
  ``leq``, ``join`` (least upper bound or a widening thereof), and optional
  ``meet``/``bottom``/``top``.  Lattice *elements* are plain hashable Python
  values; the domain object interprets them.  Keeping elements as plain
  values lets them flow through Datalog relations as ordinary constants.

* :class:`Aggregator` (see :mod:`repro.lattices.aggregator`) — the
  well-behaving binary operator actually used in aggregation atoms, with a
  declared direction (``up`` aggregates with ``join``, ``down`` with
  ``meet``).

All concrete domains live in sibling modules (constant, interval, powerset,
k-update set, the singleton ``Bot ⊑ O(obj) ⊑ C(cls)`` domain of Figure 1,
and product combinators).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, Hashable, Iterable

Element = Hashable
"""Lattice elements are arbitrary hashable Python values."""


def frozen_element(cls):
    """``@dataclass(frozen=True)`` for element classes, hashed once.

    The hash of the field tuple (the dataclass value, so set and dict orders
    hold) is taken at construction, not again at every row hash.  A pickle
    carries the fields only, since a string's hash differs between processes;
    pickles written before the cache hold a ``__dict__`` state, which
    ``__setstate__`` feeds to ``__init__``.
    """
    check = getattr(cls, "__post_init__", lambda self: None)

    def __post_init__(self) -> None:
        check(self)
        object.__setattr__(self, "_hash", hash(values(self)))

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    names = [field.name for field in fields(cls)]
    values = lambda self: tuple([getattr(self, name) for name in names])
    cls.__hash__ = lambda self: self._hash
    cls.__reduce__ = lambda self: (cls, values(self))
    cls.__setstate__ = lambda self, state: self.__init__(**state)
    return cls


class LatticeError(Exception):
    """Raised when lattice values are used inconsistently."""


class Lattice(ABC):
    """A partial order with a least-upper-bound style combine operator.

    Subclasses must implement :meth:`leq` and :meth:`join`.  ``meet`` is
    optional (used only by downward aggregations); domains without a meet
    raise :class:`LatticeError`.

    Domain objects are stateless and compare equal structurally, so they can
    be shared freely between programs and solvers.
    """

    #: Short human-readable name used by the pretty printer and error messages.
    name: str = "lattice"

    @abstractmethod
    def leq(self, a: Element, b: Element) -> bool:
        """Return True iff ``a ⊑ b`` in this domain."""

    @abstractmethod
    def join(self, a: Element, b: Element) -> Element:
        """Return the least upper bound (or a widening thereof) of ``a, b``."""

    def meet(self, a: Element, b: Element) -> Element:
        """Return the greatest lower bound of ``a, b`` if the domain has one."""
        raise LatticeError(f"{self.name} does not define a meet")

    def bottom(self) -> Element:
        """Return the least element if the domain has one."""
        raise LatticeError(f"{self.name} does not define a bottom element")

    def top(self) -> Element:
        """Return the greatest element if the domain has one."""
        raise LatticeError(f"{self.name} does not define a top element")

    def contains(self, value: Element) -> bool:
        """Return True iff ``value`` is a member of this domain.

        Used by validation and by property-based tests; the default accepts
        everything.
        """
        return True

    def samples(self) -> list[Element]:
        """A few representative elements for bounded-exhaustive law checks.

        The static checker (:mod:`repro.datalog.check`) verifies the ASM2
        aggregator laws over these.  The default returns whatever extremal
        elements the domain defines; concrete domains override with a richer
        set (including at least one non-extremal element) so the laws are
        actually exercised.
        """
        out: list[Element] = []
        for probe in (self.bottom, self.top):
            try:
                value = probe()
            except LatticeError:
                continue
            if value not in out:
                out.append(value)
        return out

    def join_all(self, values: Iterable[Element]) -> Element:
        """Fold :meth:`join` over ``values``; requires at least one value
        unless the domain has a bottom."""
        result: Element | None = None
        first = True
        for value in values:
            if first:
                result = value
                first = False
            else:
                result = self.join(result, value)
        if first:
            return self.bottom()
        return result

    def meet_all(self, values: Iterable[Element]) -> Element:
        """Fold :meth:`meet` over ``values``; requires at least one value
        unless the domain has a top."""
        result: Element | None = None
        first = True
        for value in values:
            if first:
                result = value
                first = False
            else:
                result = self.meet(result, value)
        if first:
            return self.top()
        return result

    def geq(self, a: Element, b: Element) -> bool:
        """Return True iff ``a ⊒ b``."""
        return self.leq(b, a)

    def lt(self, a: Element, b: Element) -> bool:
        """Return True iff ``a ⊏ b`` (strictly)."""
        return self.leq(a, b) and a != b

    def comparable(self, a: Element, b: Element) -> bool:
        """Return True iff ``a`` and ``b`` are ordered either way."""
        return self.leq(a, b) or self.leq(b, a)

    def dual(self) -> "Lattice":
        """Return the order-dual of this domain (join and meet swapped)."""
        return DualLattice(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        # Attribute values may themselves be unhashable (dicts); hashing a
        # canonical repr keeps hash consistent with structural equality.
        items = sorted(self.__dict__.items(), key=lambda kv: kv[0])
        return hash((type(self), repr(items)))


class DualLattice(Lattice):
    """The order-dual of a wrapped lattice: ``a ⊑ b`` iff ``b ⊑ a`` inside.

    Useful for running a "must" analysis through machinery written for "may"
    analyses, and for testing that aggregation directions behave
    symmetrically.
    """

    def __init__(self, inner: Lattice):
        self.inner = inner
        self.name = f"dual({inner.name})"

    def leq(self, a: Element, b: Element) -> bool:
        return self.inner.leq(b, a)

    def join(self, a: Element, b: Element) -> Element:
        return self.inner.meet(a, b)

    def meet(self, a: Element, b: Element) -> Element:
        return self.inner.join(a, b)

    def bottom(self) -> Element:
        return self.inner.top()

    def top(self) -> Element:
        return self.inner.bottom()

    def contains(self, value: Element) -> bool:
        return self.inner.contains(value)

    def samples(self) -> list[Element]:
        return self.inner.samples()

    def dual(self) -> Lattice:
        return self.inner


def check_partial_order(lattice: Lattice, samples: list[Element]) -> None:
    """Assert reflexivity, antisymmetry, and transitivity of ``leq`` on the
    given sample elements.  Raises :class:`LatticeError` on violation.

    Property-based tests use this with hypothesis-generated samples; the
    validator in :mod:`repro.datalog.validate` uses it with small smoke
    samples, mirroring Flix's up-front lattice verification [Madsen &
    Lhoták 2018] in a lightweight dynamic form.
    """
    for a in samples:
        if not lattice.leq(a, a):
            raise LatticeError(f"{lattice.name}: leq not reflexive at {a!r}")
    for a in samples:
        for b in samples:
            if lattice.leq(a, b) and lattice.leq(b, a) and a != b:
                raise LatticeError(
                    f"{lattice.name}: leq not antisymmetric at {a!r}, {b!r}"
                )
            for c in samples:
                if lattice.leq(a, b) and lattice.leq(b, c):
                    if not lattice.leq(a, c):
                        raise LatticeError(
                            f"{lattice.name}: leq not transitive at "
                            f"{a!r}, {b!r}, {c!r}"
                        )


def check_join_semilattice(lattice: Lattice, samples: list[Element]) -> None:
    """Assert that ``join`` is a commutative, associative, idempotent upper
    bound on the given samples.  Raises :class:`LatticeError` on violation.
    """
    for a in samples:
        if lattice.join(a, a) != a:
            raise LatticeError(f"{lattice.name}: join not idempotent at {a!r}")
    for a in samples:
        for b in samples:
            ab = lattice.join(a, b)
            if ab != lattice.join(b, a):
                raise LatticeError(
                    f"{lattice.name}: join not commutative at {a!r}, {b!r}"
                )
            if not (lattice.leq(a, ab) and lattice.leq(b, ab)):
                raise LatticeError(
                    f"{lattice.name}: join is not an upper bound at {a!r}, {b!r}"
                )
            for c in samples:
                left = lattice.join(lattice.join(a, b), c)
                right = lattice.join(a, lattice.join(b, c))
                if left != right:
                    raise LatticeError(
                        f"{lattice.name}: join not associative at "
                        f"{a!r}, {b!r}, {c!r}"
                    )
