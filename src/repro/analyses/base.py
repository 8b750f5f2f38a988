"""Packaged analysis instances: Datalog rules + extracted facts + metadata.

An :class:`AnalysisInstance` bundles everything a solver needs, plus the
bits the evaluation harness needs: the *primary* output relation whose
tuple diff defines a change's **impact** (Section 3 measures "the number of
affected points-to tuples (relation PT)" / "affected value assignments"),
and a handle to the subject program for change synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Type

from ..config import SolverConfig
from ..datalog.program import Program
from ..engines.base import Solver
from ..javalite.ast import JProgram
from ..metrics import SolverMetrics

Facts = dict[str, set[tuple]]


def extracts(schema: str) -> Callable:
    """Mark an analysis builder with the fact schema (``"value"`` or
    ``"pointsto"``) of the extractor it calls: the one a source editor keeps
    current for the analysis (:func:`repro.changes.editor_for`)."""

    def mark(builder: Callable) -> Callable:
        builder.schema = schema
        return builder

    return mark


@dataclass
class AnalysisInstance:
    """One analysis, instantiated on one subject program."""

    name: str
    program: Program
    facts: Facts
    #: The output relation whose diff defines impact (e.g. ``ptlub``).
    primary: str
    subject: JProgram | None = None
    #: Extra artifacts change generators may need (hierarchy, icfg, ...).
    context: dict = field(default_factory=dict)

    def make_solver(
        self,
        engine_cls: Type[Solver],
        solve: bool = True,
        metrics: SolverMetrics | None = None,
        config: SolverConfig | None = None,
    ) -> Solver:
        """Instantiate ``engine_cls`` on this analysis and optionally run the
        initial (from-scratch) evaluation.  ``config`` is handed to the
        solver unchanged (None: the environment's)."""
        solver = engine_cls(self.program, metrics=metrics, config=config)
        for pred, rows in self.facts.items():
            if rows and pred in solver.idb:
                continue  # extractor emitted a relation the rules derive
            solver.add_facts(pred, rows)
        if solve:
            solver.solve()
        return solver

    def fact_count(self) -> int:
        return sum(len(rows) for rows in self.facts.values())
