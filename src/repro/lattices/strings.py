"""String abstract domains (the "string analyses" of IncA [Szabó et al.
2018] that motivate custom lattices beyond powersets — Section 8).

Two domains:

* :class:`PrefixLattice` — ``Bot ⊑ Prefix(s) ⊑ Top`` where the join of two
  known strings is their longest common prefix, truncated to a maximum
  tracked length (which bounds chains, making plain ``join`` well-behaving
  without a separate widening).  Useful for URL/path provenance analyses.
* :class:`KStringsLattice` — at most ``k`` concrete strings, saturating to
  Top; the string analogue of the k-update set domain.
"""

from __future__ import annotations


from .base import Element, Lattice, frozen_element
from .kset import KSetLattice


@frozen_element
class Prefix:
    """A known common prefix of every possible runtime string."""

    text: str

    def __repr__(self) -> str:
        return f"Prefix({self.text!r})"


@frozen_element
class _Extreme:
    label: str

    def __repr__(self) -> str:
        return self.label


BOT = _Extreme("StrBot")
TOP = _Extreme("StrTop")


class PrefixLattice(Lattice):
    """Strings abstracted by their common prefix.

    Order: ``Bot ⊑ Prefix(s) ⊑ Prefix(t)`` iff ``t`` is a prefix of ``s``
    (longer prefixes carry more information, so they sit *lower*), and
    ``Prefix("") = Top``-adjacent but still distinguishes "known string
    territory" from the true Top.  ``max_length`` truncates tracked
    prefixes, bounding ascending chains (ASM2(iii)).
    """

    name = "string-prefix"

    BOT = BOT
    TOP = TOP

    def __init__(self, max_length: int = 64):
        self.max_length = max_length

    def _clip(self, text: str) -> str:
        return text[: self.max_length]

    def leq(self, a: Element, b: Element) -> bool:
        if a == BOT or b == TOP:
            return True
        if b == BOT or a == TOP:
            return a == b
        return a.text.startswith(b.text)

    def join(self, a: Element, b: Element) -> Element:
        if a == BOT:
            return b
        if b == BOT:
            return a
        if a == TOP or b == TOP:
            return TOP
        prefix = self._common(a.text, b.text)
        return Prefix(prefix)

    def meet(self, a: Element, b: Element) -> Element:
        if a == TOP:
            return b
        if b == TOP:
            return a
        if a == BOT or b == BOT:
            return BOT
        if a.text.startswith(b.text):
            return a
        if b.text.startswith(a.text):
            return b
        return BOT

    @staticmethod
    def _common(a: str, b: str) -> str:
        i = 0
        limit = min(len(a), len(b))
        while i < limit and a[i] == b[i]:
            i += 1
        return a[:i]

    def bottom(self) -> Element:
        return BOT

    def top(self) -> Element:
        return TOP

    def contains(self, value: Element) -> bool:
        return value in (BOT, TOP) or (
            isinstance(value, Prefix) and len(value.text) <= self.max_length
        )

    def of(self, text: str) -> Prefix:
        """Abstract a concrete string."""
        return Prefix(self._clip(text))


class KStringsLattice(KSetLattice):
    """At most ``k`` concrete strings, saturating to Top — the string
    analogue of the k-update points-to domain."""

    def __init__(self, k: int):
        super().__init__(k)
        self.name = f"kstrings({k})"

    @staticmethod
    def literal(text: str) -> frozenset:
        return frozenset((text,))
