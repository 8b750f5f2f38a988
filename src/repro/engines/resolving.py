"""The re-solve strategy shared by the two from-scratch engines.

Naive and semi-naive evaluation keep no support structure to maintain, so
their per-stratum update is: forget the component's previous fixpoint and
recompute it against current upstream state (the Soufflé-style behaviour
the paper contrasts with).  Everything around that — staging the EDB diff,
skipping strata whose inputs did not change, publishing the exported diff —
is the shared pipeline of :mod:`repro.engines.base`; the two engines differ
only in ``_solve_stratum``, the fixpoint loop itself.
"""

from __future__ import annotations

from ..datalog.stratify import Component
from ..metrics import StratumStats
from .aggspec import AggSpec, prune_aggregated
from .base import Solver, StratumDiff
from .relation import RelationStore


class ResolvingSolver(Solver):
    """Per stratum: clear, re-run the fixpoint, prune, diff the export."""

    STATE = (*Solver.STATE, "_raw")

    def _reset(self) -> None:
        #: The un-pruned inflationary fixpoint (``D_raw``) per derived pred.
        self._raw = RelationStore(self.arities)

    def _update_stratum(
        self, index: int, pending: StratumDiff, stratum: StratumStats | None
    ):
        # Raw accretions are only valid for the inputs they were computed
        # from: forget them, then recompute.
        for pred in self.components[index].predicates:
            self._raw.get(pred).clear()
        return self._solve_stratum(index, stratum), 0

    def raw_relation(self, pred: str) -> frozenset[tuple]:
        """The un-pruned inflationary fixpoint content (``D_raw``)."""
        self._require_solved()
        store = self._exported if pred in self.edb else self._raw
        return frozenset(store.get(pred).tuples)

    def state_size(self) -> int:
        return super().state_size() + self._raw.state_size()

    def _export_component(
        self, component: Component, local: RelationStore, specs: dict[str, AggSpec]
    ) -> StratumDiff:
        """Accrete the local fixpoint into ``D_raw``; return the pruned
        result's diff against the published view."""
        diff: StratumDiff = {}
        for pred in component.predicates:
            rows = local.get(pred).tuples
            raw = self._raw.get(pred)
            for row in rows:
                raw.add(row)
            if pred in specs:
                rows = prune_aggregated(rows, specs[pred])
            old = self._exported.get(pred).tuples
            # An empty view (every solve) takes the rows as they are: no copy.
            added, removed = (rows - old, old - rows) if old else (rows, set())
            if added or removed:
                diff[pred] = (added, removed)
        return diff
