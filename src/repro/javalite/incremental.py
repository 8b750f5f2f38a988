"""Incremental fact extraction: re-extract only what an edit touched.

The source-edit benchmark shows that once the solver is incremental, naive
whole-program fact re-extraction dominates the IDE loop.  This module makes
the front end incremental too: each method's *slice* is the set of facts
the whole-program extractor's per-method half (``method_*_facts`` in
:mod:`repro.javalite.facts`) produces for it, and an edit inside one method
re-runs that half on the method alone and diffs the slice.  The schema's
program-global half (dispatch tables, the entry method) cannot change under
a statement edit, so it runs once and is kept.
"""

from __future__ import annotations

from collections import defaultdict

from ..datalog.errors import SolverError
from .ast import JProgram
from .facts import (
    Facts,
    method_pointsto_facts,
    method_value_facts,
    program_pointsto_facts,
    program_value_facts,
)
from .types import ClassHierarchy

#: kind -> (program-global half, per-method half) of the schema.
_SCHEMAS = {
    "value": (program_value_facts, method_value_facts),
    "pointsto": (program_pointsto_facts, method_pointsto_facts),
}


class IncrementalExtractor:
    """Per-method fact slices with single-method refresh.

    ``kind`` selects the schema: ``"value"`` (flow-sensitive analyses) or
    ``"pointsto"``.
    """

    def __init__(self, program: JProgram, kind: str = "value"):
        if kind not in _SCHEMAS:
            raise SolverError(f"unknown extraction kind {kind!r}")
        self.program = program
        self.kind = kind
        self.hierarchy = ClassHierarchy(program)
        program_facts, self._method_facts = _SCHEMAS[kind]
        self._global: Facts = defaultdict(set)
        program_facts(program, self.hierarchy, self._global)
        self._slices: dict[str, Facts] = {
            method.qualified: self._extract(method) for method in program.methods()
        }

    # -- public API -----------------------------------------------------

    def facts(self) -> Facts:
        """The assembled full fact state (global + every method slice)."""
        out: Facts = {pred: set(rows) for pred, rows in self._global.items()}
        for slice_ in self._slices.values():
            for pred, rows in slice_.items():
                out.setdefault(pred, set()).update(rows)
        return out

    def refresh(self, method: str) -> tuple[Facts, Facts]:
        """Re-extract one method; returns (inserted, deleted) fact sets.

        Cost is proportional to the method, not the program.
        """
        new_slice = self._extract(self.program.method(method))
        old_slice = self._slices.get(method, {})
        inserted: Facts = {}
        deleted: Facts = {}
        for pred in set(old_slice) | set(new_slice):
            old = old_slice.get(pred, set())
            new = new_slice.get(pred, set())
            if new - old:
                inserted[pred] = new - old
            if old - new:
                deleted[pred] = old - new
        self._slices[method] = new_slice
        return inserted, deleted

    def methods(self) -> list[str]:
        return sorted(self._slices)

    def _extract(self, method) -> Facts:
        """``method``'s slice: the non-empty relations its facts fill."""
        slice_: Facts = defaultdict(set)
        self._method_facts(method, self.hierarchy, slice_)
        return dict(slice_)
