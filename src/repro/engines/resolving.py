"""The re-solve strategy shared by the two from-scratch engines.

Naive and semi-naive evaluation keep no support structure to maintain, so
their per-stratum update is: forget the component's previous fixpoint and
recompute it against current upstream state (the Soufflé-style behaviour
the paper contrasts with).  Everything around that — staging the EDB diff,
skipping strata whose inputs did not change, the exported diff — is the
shared pipeline of :mod:`repro.engines.base`; the two engines differ only
in ``_solve_component``, the fixpoint loop itself.
"""

from __future__ import annotations

from abc import abstractmethod

from ..datalog.stratify import Component
from .aggspec import AggSpec, prune_aggregated
from .base import ASSIGNED, PLAIN, Solver, StratumDiff
from .relation import RelationStore


class ResolvingSolver(Solver):
    """Per stratum: clear, re-run the fixpoint, prune, export."""

    STATE = {**Solver.STATE, "_raw": PLAIN, "_totals": ASSIGNED}

    def _reset(self) -> None:
        #: The un-pruned inflationary fixpoint (``D_raw``) per derived pred.
        self._raw = RelationStore(self.arities)
        #: aggregated pred -> group key -> running total, for a fixpoint
        #: loop that folds aggregands incrementally (semi-naive); valid for
        #: the inputs the component was last solved from.
        self._totals: dict[str, dict[tuple, object]] = {}

    def _solve_stratum(self, index: int) -> None:
        self._solve_component(self.components[index], index)

    def _update_stratum(self, index: int, pending: StratumDiff):
        # Raw accretions and running totals are only valid for the inputs
        # they were computed from: forget them, then recompute.
        component = self.components[index]
        before = {}
        for pred in component.predicates:
            before[pred] = set(self._exported.get(pred).tuples)
            self._raw.get(pred).clear()
            self._totals.pop(pred, None)
        self._solve_component(component, index)
        diff: StratumDiff = {}
        for pred, old in before.items():
            new = self._exported.get(pred).tuples
            if old != new:
                diff[pred] = (new - old, old - new)
        return diff, 0

    @abstractmethod
    def _solve_component(self, component: Component, index: int) -> None:
        """Iterate the component to its fixpoint over a local store and
        hand it to :meth:`_export_component`."""

    def raw_relation(self, pred: str) -> frozenset[tuple]:
        """The un-pruned inflationary fixpoint content (``D_raw``)."""
        self._require_solved()
        store = self._exported if pred in self.edb else self._raw
        return frozenset(store.get(pred).tuples)

    def state_size(self) -> int:
        totals = sum(len(g) for g in self._totals.values())
        return super().state_size() + self._raw.state_size() + totals

    def _export_component(
        self, component: Component, local: RelationStore, specs: dict[str, AggSpec]
    ) -> None:
        """Accrete the local fixpoint into ``D_raw`` and replace the
        exported view with the pruned result."""
        for pred in component.predicates:
            rows = local.get(pred).tuples
            raw = self._raw.get(pred)
            for row in rows:
                raw.add(row)
            if pred in specs:
                rows = prune_aggregated(rows, specs[pred])
            exported = self._exported.get(pred)
            exported.clear()
            for row in rows:
                exported.add(row)
