"""The k-update set lattice used by the paper's main points-to evaluation.

Section 7: *"an inter-procedural k-update points-to analysis for Java that
over-approximates to Top only if a points-to set grows beyond a fixed size
k"*.  Elements are either

* a ``frozenset`` of at most ``k`` abstract objects (concrete points-to set), or
* ``KSetLattice.TOP`` — the set grew beyond ``k``.

The join saturates to Top as soon as the union exceeds ``k`` elements.  This
analysis is the paper's flagship example of a definition that needs
Laddder's *eventual* ⊑-monotonicity: rules conditioned on concrete sets
retract inferences once a set saturates, and a different rule (the Top
fallback) eventually dominates the retraction.
"""

from __future__ import annotations

from typing import Iterable

from .base import Element, Lattice, LatticeError, frozen_element


@frozen_element
class _KTop:
    def __repr__(self) -> str:
        return "KTop"


TOP = _KTop()


class KSetLattice(Lattice):
    """Sets of at most ``k`` elements, saturating to a single Top."""

    name = "kset"

    TOP = TOP

    def __init__(self, k: int):
        if k < 1:
            raise LatticeError(f"k must be positive, got {k}")
        self.k = k
        self.name = f"kset({k})"

    def leq(self, a: Element, b: Element) -> bool:
        if b == TOP:
            return True
        if a == TOP:
            return False
        return frozenset(a) <= frozenset(b)

    def join(self, a: Element, b: Element) -> Element:
        if a == TOP or b == TOP:
            return TOP
        union = frozenset(a) | frozenset(b)
        if len(union) > self.k:
            return TOP
        return union

    def meet(self, a: Element, b: Element) -> Element:
        if a == TOP:
            return b
        if b == TOP:
            return a
        return frozenset(a) & frozenset(b)

    def bottom(self) -> Element:
        return frozenset()

    def top(self) -> Element:
        return TOP

    def contains(self, value: Element) -> bool:
        if value == TOP:
            return True
        return isinstance(value, frozenset) and len(value) <= self.k

    def samples(self) -> list[Element]:
        universe = [f"o{i}" for i in range(min(self.k + 1, 3))]
        out: list[Element] = [frozenset()]
        for i in range(len(universe)):
            subset = frozenset(universe[: i + 1])
            if len(subset) <= self.k:
                out.append(subset)
        out.append(frozenset(universe[-1:]))
        out.append(TOP)
        return list(dict.fromkeys(out))

    @staticmethod
    def singleton(value) -> frozenset:
        """The one-element set ``{value}``."""
        return frozenset((value,))

    @staticmethod
    def of(values: Iterable) -> frozenset:
        return frozenset(values)

    def is_concrete(self, value: Element) -> bool:
        """True iff ``value`` is a concrete (non-saturated) points-to set."""
        return value != TOP
