"""Flow-sensitive inter-procedural constant propagation (Section 7)."""

from __future__ import annotations

from ..javalite.ast import JProgram
from ..lattices import Const, ConstantLattice, lub
from .base import AnalysisInstance, extracts
from .valueflow import build_value_analysis

_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


@extracts("value")
def constant_propagation(subject: JProgram) -> AnalysisInstance:
    """Track definite constants of integer-typed locals per ICFG node."""
    lattice = ConstantLattice()

    def absbin(op: str, a, b):
        if isinstance(a, Const) and isinstance(b, Const):
            fn = _OPS.get(op)
            if fn is not None:
                return Const(fn(a.value, b.value))
        if a == lattice.BOT or b == lattice.BOT:
            return lattice.BOT
        return lattice.TOP

    return build_value_analysis(
        subject,
        name="constprop",
        aggregator=lub(lattice),
        mkval=Const,
        absbin=absbin,
        topval=lattice.top,
    )
