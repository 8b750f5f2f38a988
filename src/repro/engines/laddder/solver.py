"""The Laddder solver (Sections 4–6): incremental Datalog with inflationary
lattice aggregation over differential-dataflow iteration timestamps.

Evaluation model
----------------

Per dependency component, every tuple carries a differential count timeline
over *iteration timestamps*: a derivation via substitution θ fires at
``max(first-existence of θ's body atoms) + 1`` and contributes ``+1`` to the
head tuple's count at that timestamp (Figure 4's support counts — e.g.
``2×Reach(proc)`` at timestamp 7).  A tuple *exists* from its first
timestamp with positive cumulative count; inflationary semantics guarantees
settled existence is a single upward step (Section 4.1).

Epochs and compensation (Section 4.2)
-------------------------------------

An input change opens a new epoch.  Its fact diffs enter the affected
component as count deltas at timestamp 0 and are processed in ascending
timestamp order from a priority queue.  Applying a delta may move a tuple's
first-existence; if it does not (a support count absorbed it, as in the
``s2.proc()`` deletion walk-through), propagation stops right there.  If it
does, the solver enumerates — once per substitution, deduplicated across
occurrences — every rule instantiation involving the tuple and emits the
exact firing-time corrections ``-1@t_old`` / ``+1@t_new``.  Processing one
delta at a time against current partner state makes the per-input
differences telescope to the exact total change, with no bilinearity
bookkeeping even for self-joins.

Aggregation uses the sequential architecture of Section 5
(:mod:`repro.engines.laddder.groups`): per group, balanced aggregand trees
per timestamp with rolled-up totals and early-stopping roll-up; the
aggregating relation's inflationary output tuples are driven by diffs of the
value → first-appearance runs.

Exports are pruned and timeless (Section 4.1's postprocessing): downstream
components receive only final aggregates per group, at timestamp 0.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Mapping

from ...datalog.planning import CardinalityOracle
from ...metrics import StratumStats
from ...robustness import faults as _faults
from ...robustness.guard import TRANSACTION
from ..aggspec import NO_GROUP, final_diff
from ..base import ComponentState, Solver, StratumDiff
from .groups import GroupState
from .state import TimedRelation
from .timeline import NEVER


class _ComponentState(ComponentState):
    """Compiled plans plus runtime state for one dependency component."""

    STATE = (*ComponentState.STATE, "groups")

    def reset(self) -> None:
        super().reset()
        self.groups: dict[str, dict[tuple, GroupState]] = {p: {} for p in self.specs}

    def new_relation(self, arity: int) -> TimedRelation:
        return TimedRelation(arity, metrics=self.metrics)

    def adopt(self, entry: Mapping[str, object]) -> None:
        super().adopt(entry)
        # Group state pickled without its combine callable: rebind to this
        # solver's live aggregator registry.
        for pred, per_pred in self.groups.items():
            combine = self.specs[pred].aggregator.combine
            for group in per_pred.values():
                group.rebind(combine)

    def timeline_entries(self) -> int:
        """Differential-count entries across the component (gauge)."""
        return sum(rel.timeline_entries() for rel in self.relations.values())

    def state_size(self) -> int:
        cells = sum(rel.state_size() for rel in self.relations.values())
        cells += sum(
            group.state_size()
            for per_pred in self.groups.values()
            for group in per_pred.values()
        )
        return cells


class LaddderSolver(Solver):
    """Incremental solver with DDF timestamps and inflationary aggregation."""

    #: Iteration-timestamp ceiling: a well-behaved analysis stabilizes far
    #: below this; exceeding it indicates divergence (see Section 4.3).
    MAX_TIMESTAMP = 100_000

    COMPONENT_STATE = _ComponentState

    # -- the per-stratum strategy ---------------------------------------------

    def _solve_stratum(self, index: int, stratum: StratumStats | None):
        state = self._states[index]
        deltas = []
        for pred in sorted(state.component.upstream):
            for row in self._exported.get(pred).tuples:
                deltas.append((pred, row, 0, 1))
        for pred, head_row in self._static_heads(state):
            deltas.append((pred, head_row, 0, 1))
        return self._compensate(state, deltas, index, stratum)[0]

    def _update_stratum(
        self, index: int, pending: StratumDiff, stratum: StratumStats | None
    ):
        state = self._states[index]
        deltas = []
        for pred in sorted(state.component.upstream & pending.keys()):
            added, removed = pending[pred]
            for row in added:
                deltas.append((pred, row, 0, 1))
            for row in removed:
                deltas.append((pred, row, 0, -1))
        return self._compensate(state, deltas, index, stratum)

    def _epoch_metrics(self, update: bool) -> None:
        metrics = self.metrics
        if update:
            metrics.epochs += 1
        if metrics.active:
            metrics.timeline_entries = sum(
                state.timeline_entries() for state in self._states
            )

    # -- timelines introspection (tests, Figure 4/5 reproduction) -------------

    def timeline(self, pred: str, row: tuple):
        """The differential count timeline of a tuple (Figure 5), if any."""
        for state in self._states:
            if pred in state.component.predicates | state.component.upstream:
                relation = state.relations.get(pred)
                if relation is not None and row in relation.timelines:
                    return relation.timelines[row].copy()
        return None

    def trace(self, preds: set[str] | None = None) -> dict[int, list[tuple[str, tuple, int]]]:
        """Group current tuples by first-existence timestamp — the Figure 4
        evaluation trace view.  Counts are the support counts at the
        first-appearance timestamp (Figure 4's ``2x`` prefixes)."""
        out: dict[int, list[tuple[str, tuple, int]]] = {}
        seen: set[tuple[str, tuple]] = set()
        for state in self._states:
            for pred, relation in state.relations.items():
                if preds is not None and pred not in preds:
                    continue
                for row, timeline in relation.timelines.items():
                    if (pred, row) in seen:
                        continue  # upstream copies appear in many components
                    seen.add((pred, row))
                    first = timeline.first()
                    if first == NEVER:
                        continue
                    out.setdefault(int(first), []).append(
                        (pred, row, timeline.cumulative(int(first)))
                    )
        return {t: sorted(rows, key=repr) for t, rows in sorted(out.items())}

    # -- compensation core -----------------------------------------------

    def _bind_kernels(
        self, state: _ComponentState, oracle: CardinalityOracle
    ) -> None:
        """Resolve ``state``'s kernel tables from the shared cache, planned
        against ``oracle`` (``no_sizes``: the greedy plans).

        Propagation kernels emit canonical register tuples (``regs`` mode) —
        the positional analogue of the sorted-binding substitution — which
        the paired :class:`RuleShape` turns into head rows and firing-time
        groundings.
        """
        kernels = self.kernels
        state.occ_kernels = {
            pred: [
                (
                    rule,
                    kernels.shape(rule),
                    kernels.kernel(
                        rule, pinned=occ, emit="regs", oracle=oracle
                    ).fn,
                    # Two occurrences of ``pred`` in one rule can ground the
                    # same substitution; only those need deduplicating.
                    sum(other is rule for other, _, _ in entries) > 1,
                )
                for rule, _literal, occ in entries
            ]
            for pred, entries in state.occurrences.items()
        }
        state.extractors = {
            spec.pred: kernels.extractor(spec) for spec in state.specs.values()
        }

    def _compensate(
        self,
        state: _ComponentState,
        deltas: list[tuple[str, tuple, int, int]],
        index: int,
        stratum: StratumStats | None,
    ) -> tuple[StratumDiff, int]:
        """Drain one component's queue; returns (exported diff, work)."""
        metrics = self.metrics
        counter = itertools.count()
        queue: list[tuple[int, int, str, tuple, int]] = []
        for pred, row, t, d in deltas:
            heapq.heappush(queue, (t, next(counter), pred, row, d))

        presence_before: dict[str, dict[tuple, bool]] = {}
        groups_before: dict[str, dict[tuple, object]] = {}
        work = 0

        max_timestamp = self.budget.iterations(self.MAX_TIMESTAMP)
        while queue:
            t = queue[0][0]
            if t > max_timestamp:
                raise self._budget_exceeded(
                    f"timestamp {t} exceeds MAX_TIMESTAMP ({max_timestamp}) in "
                    f"component {sorted(state.component.predicates)} — diverging "
                    f"analysis? (check eventual ⊑-monotonicity / widening)"
                )
            self._poll_budget(f"laddder compensation, component {index}")
            # Consolidate the whole timestamp batch first: opposite-sign
            # corrections for the same tuple cancel here, which is what
            # keeps compensation of cyclic derivations from chasing itself
            # up the timestamp axis (no push ever targets the current
            # batch, so consolidation is complete).
            if stratum is not None:
                metrics.queue_depth(len(queue))
            batch: dict[tuple[str, tuple], int] = {}
            while queue and queue[0][0] == t:
                _, _, pred, row, delta = heapq.heappop(queue)
                key = (pred, row)
                batch[key] = batch.get(key, 0) + delta
            batch_derived = 0
            for (pred, row), delta in batch.items():
                if delta == 0:
                    continue
                work += 1
                relation = state.relations[pred]
                old_first = relation.first(row)
                if pred in state.component.predicates:
                    presence_before.setdefault(pred, {}).setdefault(
                        row, old_first != NEVER
                    )
                if _faults.ACTIVE is not None:
                    _faults.fire("timeline.append")
                relation.add_delta(row, t, delta)
                new_first = relation._first[row]
                if stratum is not None:
                    metrics.compensation(pred, row, t, delta)
                    if delta > 0:
                        batch_derived += 1
                    else:
                        metrics.tuples_retracted += 1
                    if old_first == new_first:
                        metrics.derivations(stratum, 0, 1)  # absorbed
                if old_first != new_first:
                    self._propagate(
                        state, pred, row, old_first, new_first, queue, counter,
                        stratum,
                    )
                    self._feed_aggregations(
                        state, pred, row, old_first, new_first, queue, counter,
                        groups_before,
                    )
                relation.cleanup(row)
            if stratum is not None:
                metrics.derivations(stratum, batch_derived)
                metrics.round_delta(stratum, batch_derived)

        return self._exported_component_diff(
            state, presence_before, groups_before
        ), work

    def _propagate(
        self, state, pred, row, old_first, new_first, queue, counter,
        stratum=None,
    ) -> None:
        """Emit firing-time corrections for every rule instantiation that
        involves ``row``, whose existence moved ``old_first -> new_first``."""
        entries = state.occ_kernels.get(pred)
        if not entries:
            return
        metrics = self.metrics
        by_rule: dict[int, set] = {}
        neg_skip = (pred, row)
        relations = state.relations
        lookup = relations.__getitem__
        for rule, shape, kernel, shared in entries:
            if _faults.ACTIVE is not None:
                _faults.fire("kernel.emit")
            seen = by_rule.setdefault(id(rule), set()) if shared else None
            head_pred = rule.head.pred
            head_of = shape.head_of
            firing = shape.firing
            t0 = perf_counter() if stratum is not None else 0.0
            enumerated = 0
            # ``regs`` is the canonical substitution (values in sorted
            # variable-name order), so it doubles as the cross-occurrence
            # dedup key — the positional analogue of sorted(theta.items()).
            for regs in kernel(lookup, row, neg_skip=neg_skip):
                if seen is not None:
                    if regs in seen:
                        continue
                    seen.add(regs)
                enumerated += 1
                t_old, t_new = firing(
                    regs, relations, pred, row, old_first, new_first
                )
                if t_old == t_new:
                    continue
                head_row = head_of(regs)
                if t_old != NEVER:
                    heapq.heappush(
                        queue,
                        (int(t_old), next(counter), head_pred, head_row, -1),
                    )
                if t_new != NEVER:
                    heapq.heappush(
                        queue,
                        (int(t_new), next(counter), head_pred, head_row, 1),
                    )
            if stratum is not None:
                # Corrections are counted when applied (in _compensate), so
                # this records enumeration effort only.
                metrics.rule_fired(
                    repr(rule), 0, 0, perf_counter() - t0, stratum,
                    count=False, fired=enumerated,
                )

    def _feed_aggregations(
        self, state, pred, row, old_first, new_first, queue, counter,
        groups_before,
    ) -> None:
        """Route a collecting tuple's existence change into the sequential
        aggregator architecture and queue the resulting output-run diffs."""
        undo = TRANSACTION.undo
        for spec in state.specs_by_collecting.get(pred, ()):
            if _faults.ACTIVE is not None:
                _faults.fire("aggregate.combine")
            split = state.extractors[spec.pred](row)
            if split is None:
                continue
            key, value = split
            per_pred = state.groups[spec.pred]
            group = per_pred.get(key)
            if group is None:
                group = per_pred[key] = GroupState(spec.aggregator.combine)
                if undo is not None:
                    undo.append((dict.pop, per_pred, key, None))
            before = groups_before.setdefault(spec.pred, {})
            if key not in before:
                before[key] = group.final() if group else NO_GROUP
            old_runs = group.output_runs()
            if old_first != NEVER:
                group.remove(int(old_first), value)
            if new_first != NEVER:
                group.insert(int(new_first), value)
            new_runs = group.output_runs()
            for out_value in old_runs.keys() | new_runs.keys():
                t_out_old = old_runs.get(out_value, NEVER)
                t_out_new = new_runs.get(out_value, NEVER)
                if t_out_old == t_out_new:
                    continue
                out_row = spec.tuple_for(key, out_value)
                if t_out_old != NEVER:
                    heapq.heappush(
                        queue, (int(t_out_old), next(counter), spec.pred, out_row, -1)
                    )
                if t_out_new != NEVER:
                    heapq.heappush(
                        queue, (int(t_out_new), next(counter), spec.pred, out_row, 1)
                    )

    # -- export --------------------------------------------------------------

    def _exported_component_diff(
        self, state, presence_before, groups_before
    ) -> StratumDiff:
        """Compare pre-epoch exported views with the settled state and
        return per-pred (added, removed); drop the groups left empty."""
        diff: StratumDiff = {}
        undo = TRANSACTION.undo
        for pred, before in groups_before.items():
            per_pred = state.groups[pred]
            added, removed = final_diff(
                state.specs[pred], before,
                lambda key: per_pred[key].final() if per_pred.get(key) else NO_GROUP,
            )
            for key in before:
                group = per_pred.get(key)
                if group is not None and not group:
                    del per_pred[key]
                    if undo is not None:
                        undo.append((dict.__setitem__, per_pred, key, group))
            if added or removed:
                diff[pred] = (added, removed)
        for pred, entries in presence_before.items():
            if pred in state.specs:
                continue  # aggregated preds export through group finals
            relation = state.rel(pred)
            added = set()
            removed = set()
            for row, was in entries.items():
                now = relation.first(row) != NEVER
                if was and not now:
                    removed.add(row)
                elif now and not was:
                    added.add(row)
            if added or removed:
                diff[pred] = (added, removed)
        return diff
