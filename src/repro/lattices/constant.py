"""The flat constant-propagation lattice ``Bot ⊑ Const(v) ⊑ Top``.

Elements are represented as:

* ``ConstantLattice.BOT`` — no information / unreachable,
* ``Const(v)`` — the variable definitely holds the single value ``v``,
* ``ConstantLattice.TOP`` — more than one possible value (not a constant).

The paper's constant propagation analysis (Sections 3 and 7) tracks values of
integer-typed variables with exactly this domain; Section 4.4 uses it to
argue that Laddder propagates *one* constant until a second one is found and
then only Top, instead of enumerating every potential constant the way an
encoding into standard Datalog would.
"""

from __future__ import annotations

from typing import Any

from .base import Element, Lattice, frozen_element


@frozen_element
class Const:
    """A known constant value.  ``value`` is any hashable Python value."""

    value: Any

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@frozen_element
class _Extreme:
    """Distinguished Bot/Top markers shared by several flat domains."""

    label: str

    def __repr__(self) -> str:
        return self.label


BOT = _Extreme("Bot")
TOP = _Extreme("Top")


class ConstantLattice(Lattice):
    """Flat lattice over constants: Bot below, Top above, constants flat."""

    name = "constant"

    BOT = BOT
    TOP = TOP

    def leq(self, a: Element, b: Element) -> bool:
        if a == b:
            return True
        if a is BOT or a == BOT:
            return True
        if b is TOP or b == TOP:
            return True
        return False

    def join(self, a: Element, b: Element) -> Element:
        if a == b:
            return a
        if a == BOT:
            return b
        if b == BOT:
            return a
        return TOP

    def meet(self, a: Element, b: Element) -> Element:
        if a == b:
            return a
        if a == TOP:
            return b
        if b == TOP:
            return a
        return BOT

    def bottom(self) -> Element:
        return BOT

    def top(self) -> Element:
        return TOP

    def contains(self, value: Element) -> bool:
        return value == BOT or value == TOP or isinstance(value, Const)

    def samples(self) -> list[Element]:
        return [BOT, Const(0), Const(1), Const(-1), TOP]

    @staticmethod
    def const(value: Any) -> Const:
        """Wrap a concrete value as a lattice element."""
        return Const(value)

    @staticmethod
    def known(value: Element) -> bool:
        """True iff ``value`` is a definite constant (neither Bot nor Top)."""
        return isinstance(value, Const)
