"""Shared pre-planning pass: check, prune, and build the impact index.

:func:`prepare` runs :func:`repro.datalog.check.check_program`, raises on
the first error, drops the dead-rule slice, re-stratifies, and builds the
static change-impact index (:mod:`repro.datalog.impact`) — always *after*
pruning, against the exact rule list and component order the engine will
evaluate, so pruning and impact-guided scheduling consume one consistent
view of the program.  Without the index (``SolverConfig.impact`` off)
engines visit every stratum per update, bit-equal by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..datalog.check import CheckResult, check_program
from ..datalog.impact import ImpactIndex
from ..datalog.program import Program
from ..datalog.stratify import Component, stratify
from ..datalog.validate import raise_on_error


@dataclass
class PreparedProgram:
    """What :func:`prepare` learned; consumed by ``Solver.__init__``."""

    #: The working program, dead-rule-pruned in place unless opted out.
    program: Program
    checked: CheckResult
    #: Dependency components of the (pruned) program, bottom-up.
    components: list[Component]
    #: Static change-impact index, or None when not asked for.
    impact: ImpactIndex | None
    dead_rules_pruned: int
    check_seconds: float
    impact_seconds: float


def prepare(program: Program, prune: bool, impact: bool) -> PreparedProgram:
    """Run static checks on ``program`` (already normalized), prune dead
    rules in place (``prune``), and build the impact index over the result
    (``impact``).

    Raises the first error-severity diagnostic as a ``ValidationError``
    (the legacy ``validate()`` contract).  Exported views are unaffected by
    pruning either way — dead rules cannot reach an export by definition.
    """
    t0 = time.perf_counter()
    checked = check_program(program)
    raise_on_error(checked)
    components: list[Component] = checked.components or []
    pruned = 0
    if checked.dead_rules and prune:
        program.rules = list(checked.live_rules)
        components = stratify(program)
        pruned = len(checked.dead_rules)
    check_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    index = ImpactIndex(program, components) if impact else None
    impact_seconds = time.perf_counter() - t1

    return PreparedProgram(
        program=program,
        checked=checked,
        components=components,
        impact=index,
        dead_rules_pruned=pruned,
        check_seconds=check_seconds,
        impact_seconds=impact_seconds,
    )


__all__ = ["PreparedProgram", "prepare"]
