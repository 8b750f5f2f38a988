"""Integer interval domain with widening.

Elements are ``Interval(lo, hi)`` with ``lo <= hi``; the bounds may be the
symbolic infinities ``NEG_INF`` / ``POS_INF``.  The empty interval (bottom)
is the distinguished ``IntervalLattice.BOT``.

The plain least upper bound (convex hull) has infinite ascending chains
(``[0,0] ⊑ [0,1] ⊑ [0,2] ⊑ ...``), so the *aggregation* operator used in
analyses is :meth:`IntervalLattice.widen`: a classic threshold widening that
jumps unstable bounds to the nearest threshold (or infinity).  This is
exactly the ASM2(iii) requirement — the binary operator must guarantee a
stationary output in finitely many applications even on infinite lattices.
"""

from __future__ import annotations

import math
from typing import Sequence

from .base import Element, Lattice, LatticeError, frozen_element

NEG_INF = -math.inf
POS_INF = math.inf

#: Default widening thresholds; chosen to include common sentinel values so
#: the analysis keeps useful bounds around small constants and powers of two.
DEFAULT_THRESHOLDS: tuple[float, ...] = (-128, -1, 0, 1, 2, 8, 16, 64, 127, 255, 1024)


@frozen_element
class Interval:
    """A non-empty closed integer interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise LatticeError(f"empty interval [{self.lo}, {self.hi}]")

    def __repr__(self) -> str:
        lo = "-inf" if self.lo == NEG_INF else str(int(self.lo))
        hi = "+inf" if self.hi == POS_INF else str(int(self.hi))
        return f"[{lo},{hi}]"

    def contains_value(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and self.lo not in (NEG_INF, POS_INF)


@frozen_element
class _EmptyInterval:
    def __repr__(self) -> str:
        return "[]"


BOT = _EmptyInterval()
TOP = Interval(NEG_INF, POS_INF)


class IntervalLattice(Lattice):
    """Interval domain; ``join`` is the convex hull, ``widen`` the widening.

    ``thresholds`` tunes the widening; it must be sorted ascending.
    """

    name = "interval"

    BOT = BOT
    TOP = TOP

    def __init__(self, thresholds: Sequence[float] = DEFAULT_THRESHOLDS):
        self.thresholds = tuple(sorted(thresholds))

    def leq(self, a: Element, b: Element) -> bool:
        if a == BOT:
            return True
        if b == BOT:
            return False
        return b.lo <= a.lo and a.hi <= b.hi

    def join(self, a: Element, b: Element) -> Element:
        if a == BOT:
            return b
        if b == BOT:
            return a
        return Interval(min(a.lo, b.lo), max(a.hi, b.hi))

    def meet(self, a: Element, b: Element) -> Element:
        if a == BOT or b == BOT:
            return BOT
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        if lo > hi:
            return BOT
        return Interval(lo, hi)

    def bottom(self) -> Element:
        return BOT

    def top(self) -> Element:
        return TOP

    def contains(self, value: Element) -> bool:
        return value == BOT or isinstance(value, Interval)

    def samples(self) -> list[Element]:
        return [
            BOT,
            Interval(0, 0),
            Interval(1, 1),
            Interval(0, 1),
            Interval(-1, 8),
            TOP,
        ]

    def widen(self, a: Element, b: Element) -> Element:
        """Symmetric threshold widening.

        Takes the convex hull, then rounds every bound on which the two
        arguments *disagree* outward to the nearest threshold (or infinity
        past the last threshold).  Bounds the arguments agree on are kept
        exactly.  Rounding outward is a closure operator, which makes the
        operation associative and commutative (ASM2(i)); the hull makes the
        result dominate both arguments (ASM2(ii)); and once a bound has been
        rounded it lives in the finite threshold set, so chains stabilize
        (ASM2(iii)).
        """
        if a == BOT:
            return b
        if b == BOT:
            return a
        if a.lo == b.lo:
            lo = a.lo
        else:
            lo = self._widen_lo(min(a.lo, b.lo))
        if a.hi == b.hi:
            hi = a.hi
        else:
            hi = self._widen_hi(max(a.hi, b.hi))
        return Interval(lo, hi)

    def _widen_lo(self, lo: float) -> float:
        for t in reversed(self.thresholds):
            if t <= lo:
                return t
        return NEG_INF

    def _widen_hi(self, hi: float) -> float:
        for t in self.thresholds:
            if t >= hi:
                return t
        return POS_INF

    # -- abstract arithmetic transfer functions -------------------------

    @staticmethod
    def point(v: float) -> Interval:
        """The singleton interval ``[v, v]``."""
        return Interval(v, v)

    def add(self, a: Element, b: Element) -> Element:
        if a == BOT or b == BOT:
            return BOT
        return Interval(self._safe(a.lo + b.lo), self._safe(a.hi + b.hi))

    def sub(self, a: Element, b: Element) -> Element:
        if a == BOT or b == BOT:
            return BOT
        return Interval(self._safe(a.lo - b.hi), self._safe(a.hi - b.lo))

    def mul(self, a: Element, b: Element) -> Element:
        if a == BOT or b == BOT:
            return BOT
        products = [self._safe(x * y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        return Interval(min(products), max(products))

    def neg(self, a: Element) -> Element:
        if a == BOT:
            return BOT
        return Interval(-a.hi, -a.lo)

    @staticmethod
    def _safe(v: float) -> float:
        # 0 * inf is nan under IEEE; in interval arithmetic it is 0.
        if math.isnan(v):
            return 0.0
        return v
