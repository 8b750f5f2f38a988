"""Flow-sensitive sign analysis — a third value abstraction.

Demonstrates how cheaply the shared flow-sensitive framework
(:mod:`repro.analyses.valueflow`) retargets to a new finite domain; also a
fully enumerable lattice for exhaustive property checks.
"""

from __future__ import annotations

from ..javalite.ast import JProgram
from ..lattices import lub
from ..lattices.sign import SignLattice
from .base import AnalysisInstance, extracts
from .valueflow import build_value_analysis


@extracts("value")
def sign_analysis(subject: JProgram) -> AnalysisInstance:
    """Track integer signs of locals per ICFG node."""
    lattice = SignLattice()

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
            return SignLattice.of(lit)
        return lattice.top()

    return build_value_analysis(
        subject,
        name="sign",
        aggregator=lub(lattice),
        mkval=mkval,
        absbin=absbin,
        topval=lattice.top,
    )
