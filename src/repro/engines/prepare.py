"""Shared pre-planning pass: check, prune, stratify.

:func:`prepare` runs :func:`repro.datalog.check.check_program`, raises on
the first error, drops the dead-rule slice and re-stratifies, so every
engine evaluates the exact rule list and component order checked here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..datalog.check import CheckResult, check_program
from ..datalog.program import Program
from ..datalog.stratify import Component, stratify
from ..datalog.validate import raise_on_error


@dataclass
class PreparedProgram:
    """What :func:`prepare` learned; consumed by ``Solver.__init__``."""

    #: The working program, dead-rule-pruned in place.
    program: Program
    checked: CheckResult
    #: Dependency components of the (pruned) program, bottom-up.
    components: list[Component]
    dead_rules_pruned: int
    check_seconds: float


def prepare(program: Program) -> PreparedProgram:
    """Run static checks on ``program`` (already normalized) and prune dead
    rules in place.

    Raises the first error-severity diagnostic as a ``ValidationError``
    (the legacy ``validate()`` contract).  Exported views are unaffected by
    pruning — dead rules cannot reach an export by definition.
    """
    t0 = time.perf_counter()
    checked = check_program(program)
    raise_on_error(checked)
    components: list[Component] = checked.components or []
    pruned = 0
    if checked.dead_rules:
        program.rules = list(checked.live_rules)
        components = stratify(program)
        pruned = len(checked.dead_rules)
    return PreparedProgram(
        program=program,
        checked=checked,
        components=components,
        dead_rules_pruned=pruned,
        check_seconds=time.perf_counter() - t0,
    )


__all__ = ["PreparedProgram", "prepare"]
