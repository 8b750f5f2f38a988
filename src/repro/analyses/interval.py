"""Flow-sensitive inter-procedural interval analysis (Section 7).

Same rules as constant propagation, with the interval abstraction and a
*widening* aggregator so loop counters stabilize (ASM2(iii)); the widening
thresholds are configurable.
"""

from __future__ import annotations

from typing import Sequence

from ..javalite.ast import JProgram
from ..lattices import Interval, IntervalLattice, widen
from ..lattices.interval import DEFAULT_THRESHOLDS
from .base import AnalysisInstance, extracts
from .valueflow import build_value_analysis


@extracts("value")
def interval_analysis(
    subject: JProgram,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> AnalysisInstance:
    """Track integer ranges of locals per ICFG node, with widening."""
    lattice = IntervalLattice(thresholds)

    def absbin(op: str, a, b):
        if op == "+":
            return lattice.add(a, b)
        if op == "-":
            return lattice.sub(a, b)
        if op == "*":
            return lattice.mul(a, b)
        return lattice.top()

    def mkval(lit) -> object:
        if isinstance(lit, (int, float)):
            return IntervalLattice.point(lit)
        return lattice.top()

    return build_value_analysis(
        subject,
        name="interval",
        aggregator=widen(lattice),
        mkval=mkval,
        absbin=absbin,
        topval=lattice.top,
    )
