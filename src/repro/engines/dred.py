"""DRedL — the DRed-based incremental solver that Laddder replaces.

This is the Section 7.3 comparison baseline: IncA's fixpoint algorithm
[Szabó et al. 2018], i.e. DRed [Gupta, Mumick & Subrahmanian 1993] extended
with Ross–Sagiv-style lattice aggregation (a group's aggregate is a single
*current* tuple; when it advances, the old tuple is deleted and the new one
inserted).

Characteristics the paper attributes to it — and which this implementation
exhibits by construction:

* **Over-deletion.**  A deletion sweep transitively deletes every tuple
  with at least one derivation using a deleted tuple, joining against the
  pre-sweep state; a re-derivation pass then restores tuples that still
  have alternative support.  "A positive support count ... is insufficient
  evidence for its continued existence" — DRed cannot tell derivations
  apart, so deletions touching widely-used tuples cascade through most of
  the database and get re-derived (Section 2's 9 s mean on minijavac).

* **Per-rule monotonicity requirement.**  Aggregate advances retract the
  old aggregate's consequences, so termination is only guaranteed when
  every rule is ⊑-monotonic (Ross–Sagiv).  Analyses that merely satisfy
  *eventual* ⊑-monotonicity — rules conditioned on intermediate aggregate
  values, like the k-update points-to analysis — carry no guarantee: they
  oscillate and trip the divergence guard ("IncA failed to terminate",
  Section 2), though this implementation's exact group reconciliation is
  robust enough that small instances sometimes happen to converge.  Rules
  that retract without any dominating counterpart oscillate under every
  ordering.  Constant propagation and set-based points-to are per-rule
  monotone and agree with the naive reference.  Interval is per-rule
  monotone too, but its solve does not always agree: under some hash seeds
  (``PYTHONHASHSEED`` 0 and 1 on minijavac) a widened bound comes out
  coarser than ``T̂``'s (ROADMAP item 3;
  ``tests/unit/engines/test_dred_interval.py`` is the expected failure).

Initialization runs the same change-propagation machinery from an empty
state (IncA's Rete back end behaves the same way), which is why its
from-scratch time is "essentially a standard bottom-up Datalog fixpoint
evaluation" (Section 7.3).
"""

from __future__ import annotations

from time import perf_counter

from ..config import SolverConfig
from ..datalog.ast import Rule, Variable
from ..datalog.errors import SolverError
from ..datalog.planning import CardinalityOracle
from ..datalog.program import Program
from ..metrics import SolverMetrics
from ..robustness import faults as _faults
from .aggspec import AggSpec
from .base import ASSIGNED, ComponentState, Solver, StratumDiff
from .grounding import bind_pinned
from .relation import IndexedRelation

_MISSING = object()


class _DredComponent(ComponentState):
    """Compiled plans and live state for one component under DRedL."""

    #: ``totals`` is mutated by plain dict assignment in the sweeps.
    STATE = {**ComponentState.STATE, "totals": ASSIGNED}

    def __init__(self, component, program, arities):
        super().__init__(component, program, arities)
        #: head pred -> [rule] for re-derivation.
        self.rederive_rules: dict[str, list[Rule]] = {}
        for rule in self.plain_rules:
            self.rederive_rules.setdefault(rule.head.pred, []).append(rule)
        #: head pred -> [head-row exists-kernel].
        self.rederive_kernels: dict[str, list[object]] = {}
        self.recompute_kernels: dict[str, object] = {}

    def reset(self) -> None:
        super().reset()
        self.totals: dict[str, dict[tuple, object]] = {p: {} for p in self.specs}

    def new_relation(self, arity: int) -> IndexedRelation:
        return IndexedRelation(arity, metrics=self.metrics)

    def state_size(self) -> int:
        cells = sum(rel.state_size() for rel in self.relations.values())
        cells += sum(len(groups) for groups in self.totals.values())
        return cells


class DRedLSolver(Solver):
    """DRed with Ross–Sagiv lattice aggregation (the IncA baseline)."""

    #: Outer delete/re-derive/insert rounds per component update before the
    #: solver declares the analysis incompatible (non-per-rule-monotone).
    MAX_ROUNDS = 10_000

    COMPONENT_STATE = _DredComponent

    def __init__(
        self,
        program: Program,
        aggregation: str = "inflationary",
        metrics: SolverMetrics | None = None,
        config: SolverConfig | None = None,
    ):
        """``aggregation`` selects the aggregate-maintenance mode:

        * ``"inflationary"`` (default) — intermediate aggregate results are
          never retracted; exports are pruned per group.  Robust: terminates
          for every analysis Laddder terminates on, with the same DRed
          over-deletion cost profile on deletions.
        * ``"rosssagiv"`` — faithful IncA behaviour: an aggregate advance
          deletes the old result and inserts the new one, and superseded
          intermediates are swept after every epoch.  Termination is only
          guaranteed for per-rule ⊑-monotonic analyses; eventually-monotone
          analyses (k-update) and aggregation-heavy recursive heaps can
          oscillate and trip the divergence guard — the behaviour the paper
          reports for IncA.
        """
        super().__init__(program, metrics=metrics, config=config)
        if aggregation not in ("inflationary", "rosssagiv"):
            raise ValueError(f"unknown aggregation mode {aggregation!r}")
        self.inflationary = aggregation == "inflationary"

    def fresh(self) -> "DRedLSolver":
        return type(self)(
            self.source_program,
            "inflationary" if self.inflationary else "rosssagiv",
            metrics=self.metrics,
            config=self.config,
        )

    # -- the per-stratum strategy ---------------------------------------------

    def _solve_stratum(self, index: int) -> None:
        state = self._states[index]
        insertions = set()
        for pred in state.component.upstream:
            for row in self._exported.get(pred).tuples:
                insertions.add((pred, row))
        insertions.update(self._static_heads(state))
        self._plan_component(state, update=False)
        self._run_component(state, insertions, set(), index)

    def _update_stratum(self, index: int, pending: StratumDiff):
        state = self._states[index]
        seeds_ins: set[tuple[str, tuple]] = set()
        seeds_del: set[tuple[str, tuple]] = set()
        for pred in state.component.upstream & pending.keys():
            added, removed = pending[pred]
            seeds_ins.update((pred, row) for row in added)
            seeds_del.update((pred, row) for row in removed)
        self._plan_component(state, update=True)
        return self._run_component(state, seeds_ins, seeds_del, index)

    # -- the DRed delete/re-derive/insert loop -------------------------------
    #
    # One epoch runs in up to MAX_ROUNDS rounds of three phases:
    #
    #   1. deletion sweep  — classic DRed: transitively over-delete against
    #      the pre-sweep state (aggregate tuples of dirtied groups included,
    #      which breaks self-supporting cycles through aggregation), apply
    #      removals, then re-derive over-deleted tuples that still have
    #      alternative support.
    #   2. ascension       — recompute dirtied group totals from survivors,
    #      then propagate insertions to quiescence.  Totals only *advance*
    #      here; superseded aggregate tuples are left in place and recorded
    #      as stale (Ross–Sagiv pairs the dominating insertion with the
    #      deletion — removing the old tuple mid-ascension would tear down
    #      the state being rebuilt).
    #   3. cleanup (Ross–Sagiv mode only) — remove stale (non-final)
    #      aggregate tuples with a *limited* sweep (no aggregate
    #      over-delete), re-derive, and reconcile dirtied groups.  A total
    #      that changes here re-seeds the next round; analyses conditioned
    #      on intermediate aggregates oscillate until the round guard trips
    #      (the divergence the paper reports for IncA/DRedL).  The default
    #      inflationary mode skips this phase: intermediates stay in the
    #      internal state and exports are pruned per group instead.

    def _bind_kernels(
        self, state: _DredComponent, oracle: CardinalityOracle
    ) -> None:
        """Resolve ``state``'s kernel tables from the shared cache, planned
        against ``oracle`` (``no_sizes``: the greedy plans)."""
        kernels = self.kernels
        state.occ_kernels = {
            pred: [
                (rule, literal, kernels.kernel(rule, pinned=occ, oracle=oracle).fn)
                for rule, literal, occ in entries
            ]
            for pred, entries in state.occurrences.items()
        }
        state.rederive_kernels = {
            pred: [
                kernels.kernel(rule, head=True, emit="exists", oracle=oracle).fn
                for rule in rules
            ]
            for pred, rules in state.rederive_rules.items()
        }
        state.recompute_kernels = {}
        state.extractors = {}
        for spec in state.specs.values():
            group_vars = frozenset(
                term.name
                for pos, term in enumerate(spec.head.args)
                if pos != spec.agg_pos and isinstance(term, Variable)
            )
            state.recompute_kernels[spec.pred] = kernels.kernel(
                spec.rule, bound=group_vars, emit="keyvalue", spec=spec
            ).fn
            state.extractors[spec.pred] = kernels.extractor(spec)

    def _run_component(
        self,
        state: _DredComponent,
        pending_ins: set[tuple[str, tuple]],
        pending_del: set[tuple[str, tuple]],
        index: int = 0,
    ) -> tuple[dict[str, tuple[set[tuple], set[tuple]]], int]:
        metrics = self.metrics
        stratum = (
            metrics.stratum(index, state.component.predicates)
            if metrics.active
            else None
        )
        comp_started = perf_counter() if stratum is not None else 0.0
        net_added: dict[str, set[tuple]] = {}
        net_removed: dict[str, set[tuple]] = {}
        work = 0

        local = state.component.predicates
        # Inflationary aggregated exports are derived from group finals.
        unrecorded = state.specs if self.inflationary else ()

        def record_add(pred: str, row: tuple) -> None:
            if pred not in local or pred in unrecorded:
                return
            if row in net_removed.get(pred, ()):
                net_removed[pred].discard(row)
            else:
                net_added.setdefault(pred, set()).add(row)

        def record_remove(pred: str, row: tuple) -> None:
            if pred not in local or pred in unrecorded:
                return
            if row in net_added.get(pred, ()):
                net_added[pred].discard(row)
            else:
                net_removed.setdefault(pred, set()).add(row)

        #: group -> pre-epoch final (captured on first touch; inflationary
        #: mode derives aggregated-predicate exports from these).
        groups_before: dict[tuple[str, tuple], object] = {}

        max_rounds = self.budget.iterations(self.MAX_ROUNDS)
        for _ in range(max_rounds):
            if not pending_del and not pending_ins:
                break
            self._poll_budget(f"DRedL round, component {index}")
            if stratum is not None:
                round_derived_before = stratum.tuples_derived
            dirty: set[tuple[str, tuple]] = set()  # (agg pred, group key)

            # Phase 1: deletion sweep + re-derivation.  Dirtied groups'
            # stored totals are forgotten: their aggregand multisets changed
            # and any fold against the stale value would poison the
            # ascension; exact values are reconciled below, after the
            # restorations have physically landed.
            if pending_del:
                work += self._deletion_sweep(
                    state, pending_del, pending_ins, dirty, record_remove,
                    overdelete_aggregates=True, stratum=stratum,
                )
                pending_del = set()
                for spec_pred, key in dirty:
                    totals = state.totals[spec_pred]
                    if (spec_pred, key) not in groups_before:
                        groups_before[(spec_pred, key)] = totals.get(key, _MISSING)
                    totals.pop(key, None)

            # Phase 2: ascend (restorations + new insertions), then
            # reconcile every touched group against its actual aggregand
            # multiset; reconciliation may enable further ascension, so
            # iterate to quiescence (totals only advance here — finite).
            touched: set[tuple[str, tuple]] = set(dirty)
            work += self._insertion_sweep(
                state, pending_ins, pending_del, touched, record_add,
                groups_before, stratum=stratum,
            )
            pending_ins = set()
            reconciled: set[tuple[str, tuple]] = set()
            for _ in range(self.MAX_ROUNDS):
                to_insert: set[tuple[str, tuple]] = set()
                for spec_pred, key in sorted(touched - reconciled, key=repr):
                    reconciled.add((spec_pred, key))
                    spec = state.specs[spec_pred]
                    totals = state.totals[spec_pred]
                    exact = self._recompute_total(state, spec, key)
                    work += 1
                    if exact is None:
                        totals.pop(key, None)
                        continue
                    totals[key] = exact
                    row = spec.tuple_for(key, exact)
                    if row not in state.rel(spec_pred):
                        to_insert.add((spec_pred, row))
                if not to_insert:
                    break
                work += self._insertion_sweep(
                    state, to_insert, pending_del, touched, record_add,
                    groups_before, stratum=stratum,
                )
            else:  # pragma: no cover - bounded by group count
                raise SolverError("DRedL reconcile loop failed to quiesce")

            if stratum is not None:
                # All physical inserts of a round happen in phase 2; record
                # the round's frontier before the (retract-only) cleanup.
                metrics.round_delta(
                    stratum, stratum.tuples_derived - round_derived_before
                )

            # Phase 3 (Ross-Sagiv mode): clean up stale aggregate tuples.
            if self.inflationary:
                continue
            stale: set[tuple[str, tuple]] = set()
            for spec_pred, key in touched:
                spec = state.specs[spec_pred]
                final = state.totals[spec_pred].get(key)
                relation = state.rel(spec_pred)
                pattern = spec.tuple_for(key, None)
                for row in relation.matching(pattern):
                    _, value = spec.split_tuple(row)
                    if final is None or value != final:
                        stale.add((spec_pred, row))
            if stale:
                cleanup_dirty: set[tuple[str, tuple]] = set()
                work += self._deletion_sweep(
                    state, stale, pending_ins, cleanup_dirty, record_remove,
                    overdelete_aggregates=False, stratum=stratum,
                )
                # Reconcile: a decreased total means rules were conditioned
                # on intermediate aggregates (not per-rule monotone); loop.
                for spec_pred, key in cleanup_dirty:
                    spec = state.specs[spec_pred]
                    totals = state.totals[spec_pred]
                    stored = totals.get(key)
                    recomputed = self._recompute_total(state, spec, key)
                    work += 1
                    if recomputed == stored:
                        if stored is not None:
                            row = spec.tuple_for(key, stored)
                            if row not in state.rel(spec_pred):
                                pending_ins.add((spec_pred, row))
                        continue
                    if stored is not None:
                        old_row = spec.tuple_for(key, stored)
                        if old_row in state.rel(spec_pred):
                            pending_del.add((spec_pred, old_row))
                    if recomputed is None:
                        totals.pop(key, None)
                    else:
                        totals[key] = recomputed
                        new_row = spec.tuple_for(key, recomputed)
                        pending_ins.add((spec_pred, new_row))
        else:
            raise self._budget_exceeded(
                f"DRedL exceeded {max_rounds} delete/re-derive rounds in "
                f"component {sorted(state.component.predicates)} — the "
                f"analysis is not per-rule ⊑-monotonic (Ross–Sagiv); "
                f"use LaddderSolver"
            )

        if self.inflationary:
            for (spec_pred, key), old_final in groups_before.items():
                spec = state.specs[spec_pred]
                new_final = state.totals[spec_pred].get(key, _MISSING)
                if old_final == new_final:
                    continue
                if old_final is not _MISSING:
                    net_removed.setdefault(spec_pred, set()).add(
                        spec.tuple_for(key, old_final)
                    )
                if new_final is not _MISSING:
                    net_added.setdefault(spec_pred, set()).add(
                        spec.tuple_for(key, new_final)
                    )

        diff: dict[str, tuple[set[tuple], set[tuple]]] = {}
        for pred in set(net_added) | set(net_removed):
            added = net_added.get(pred, set()) - net_removed.get(pred, set())
            removed = net_removed.get(pred, set()) - net_added.get(pred, set())
            if added or removed:
                diff[pred] = (added, removed)
                exported = self._exported.get(pred)
                for row in removed:
                    exported.discard(row)
                for row in added:
                    exported.add(row)
        if stratum is not None:
            metrics.stratum_end(stratum, perf_counter() - comp_started)
        return diff, work

    def _deletion_sweep(
        self, state, seeds, pending_ins, dirty, record_remove,
        overdelete_aggregates: bool, stratum=None,
    ) -> int:
        """Transitive over-deletion against the pre-sweep state, physical
        removal, then re-derivation of survivors (restorations feed the
        caller's insertion worklist)."""
        metrics = self.metrics
        rel = state.rel
        work = 0
        removed: set[tuple[str, tuple]] = set()
        negation_reinserts: set[tuple[str, tuple]] = set()
        frontier = [(pred, row) for pred, row in seeds if row in rel(pred)]
        removed.update(frontier)
        while frontier:
            self._poll_budget("DRedL deletion sweep")
            next_frontier: list[tuple[str, tuple]] = []
            for pred, row in frontier:
                if _faults.ACTIVE is not None:
                    _faults.fire("kernel.emit")
                work += 1
                for rule, literal, kernel in state.occ_kernels.get(pred, ()):
                    if literal.negated:
                        if bind_pinned(literal, row) is not None:
                            negation_reinserts.add((pred, row))
                        continue
                    head_pred = rule.head.pred
                    head_rows = rel(head_pred).tuples
                    t0 = perf_counter() if stratum is not None else 0.0
                    enumerated = 0
                    for head_row in kernel(rel, row):
                        enumerated += 1
                        head = (head_pred, head_row)
                        if head in removed:
                            continue
                        if head_row in head_rows:
                            removed.add(head)
                            next_frontier.append(head)
                    if stratum is not None:
                        metrics.rule_fired(
                            repr(rule), 0, 0, perf_counter() - t0,
                            stratum, count=False, fired=enumerated,
                        )
                for spec in state.specs_by_collecting.get(pred, ()):
                    split = state.extractors[spec.pred](row)
                    if split is None:
                        continue
                    key, _value = split
                    dirty.add((spec.pred, key))
                    if not overdelete_aggregates:
                        continue
                    # The whole inflationary output history of the group is
                    # suspect once its aggregands change: over-delete every
                    # aggregate tuple of the group (not just the current
                    # total), or stale intermediates can keep retracted
                    # conclusions alive through cycles.
                    pattern = spec.tuple_for(key, None)
                    for total_row in rel(spec.pred).matching(pattern):
                        head = (spec.pred, total_row)
                        if head not in removed:
                            removed.add(head)
                            next_frontier.append(head)
            frontier = next_frontier

        # Re-derivation pass: over-deleted tuples — including retraction
        # seeds, which are derived tuples that may have other derivations —
        # are restored when alternative support survives.  Upstream rows are
        # inputs (never derived) and aggregates are restored by group
        # reconciliation.
        overdeleted_local: list[tuple[str, tuple]] = []
        for pred, row in removed:
            if rel(pred).discard(row):
                if stratum is not None:
                    metrics.tuples_retracted += 1
                record_remove(pred, row)
                if pred in state.component.predicates and pred not in state.specs:
                    overdeleted_local.append((pred, row))

        for pred, row in sorted(overdeleted_local, key=repr):
            if self._rederivable(state, pred, row):
                pending_ins.add((pred, row))
            work += 1

        for pred, row in negation_reinserts:
            for rule, literal, kernel in state.occ_kernels.get(pred, ()):
                if not literal.negated:
                    continue
                for head_row in kernel(rel, row):
                    pending_ins.add((rule.head.pred, head_row))
                    work += 1
        return work

    def _insertion_sweep(
        self, state, seeds, pending_del, touched, record_add, groups_before,
        stratum=None,
    ) -> int:
        """Monotone ascension: propagate insertions to quiescence.  Group
        totals only advance; superseded aggregate tuples stay in place (in
        Ross-Sagiv mode a later phase cleans them up; in inflationary mode
        they simply remain, and pruning happens at export) so the state
        being rebuilt is never torn down mid-flight.  Insertions into
        negated atoms seed the next round's deletions."""
        metrics = self.metrics
        rel = state.rel
        work = 0
        worklist = list(seeds)
        while worklist:
            pred, row = worklist.pop()
            if _faults.ACTIVE is not None:
                _faults.fire("kernel.emit")
            if work & 1023 == 1023:
                # The worklist loop has no outer round boundary; poll the
                # deadline every ~1k applied tuples so a runaway ascension
                # cannot outlive the wall-clock budget.
                self._poll_budget("DRedL insertion sweep")
            if not rel(pred).add(row):
                if stratum is not None:
                    metrics.derivations(stratum, 0, 1)
                continue
            work += 1
            if stratum is not None:
                metrics.derivations(stratum, 1)
            record_add(pred, row)
            for rule, literal, kernel in state.occ_kernels.get(pred, ()):
                head_pred = rule.head.pred
                head_rows = rel(head_pred).tuples
                if literal.negated:
                    for head_row in kernel(rel, row, neg_skip=(pred, row)):
                        if head_row in head_rows:
                            pending_del.add((head_pred, head_row))
                    continue
                t0 = perf_counter() if stratum is not None else 0.0
                enumerated = 0
                for head_row in kernel(rel, row):
                    enumerated += 1
                    if head_row not in head_rows:
                        worklist.append((head_pred, head_row))
                if stratum is not None:
                    metrics.rule_fired(
                        repr(rule), 0, 0, perf_counter() - t0,
                        stratum, count=False, fired=enumerated,
                    )
            for spec in state.specs_by_collecting.get(pred, ()):
                if _faults.ACTIVE is not None:
                    _faults.fire("aggregate.combine")
                split = state.extractors[spec.pred](row)
                if split is None:
                    continue
                key, value = split
                totals = state.totals[spec.pred]
                old_total = totals.get(key)
                if (spec.pred, key) not in groups_before:
                    groups_before[(spec.pred, key)] = (
                        old_total if old_total is not None else _MISSING
                    )
                new_total = (
                    value if old_total is None
                    else spec.aggregator.combine(old_total, value)
                )
                touched.add((spec.pred, key))
                if new_total == old_total:
                    # No advance — but an earlier sweep may have removed the
                    # total tuple itself; re-assert its presence so the
                    # group stays visible to rules.
                    total_row = spec.tuple_for(key, new_total)
                    if total_row not in rel(spec.pred):
                        worklist.append((spec.pred, total_row))
                    continue
                totals[key] = new_total
                # The one loop in DRedL with no round guard: a strictly
                # advancing group total feeds itself back into the worklist,
                # so a non-Noetherian lattice diverges *here* — tick the
                # ascending-chain watchdog.
                self._chain_advance(spec.pred, key)
                advanced_row = spec.tuple_for(key, new_total)
                worklist.append((spec.pred, advanced_row))
        return work

    def _rederivable(self, state, pred: str, row: tuple) -> bool:
        """Does some rule still derive ``row`` in the current state?"""
        rel = state.rel
        for kernel in state.rederive_kernels.get(pred, ()):
            if kernel(rel, row):
                return True
        return False

    def _recompute_total(self, state, spec: AggSpec, key: tuple):
        """Fold the group's surviving aggregands; None if the group is empty."""
        # Bind the group variables of the collecting atom, then enumerate
        # the group's surviving aggregands with the head-bound kernel.
        group_binding: dict = {}
        i = 0
        for pos, term in enumerate(spec.head.args):
            if pos == spec.agg_pos:
                continue
            if isinstance(term, Variable):
                group_binding[term.name] = key[i]
            i += 1
        kernel = state.recompute_kernels[spec.pred]
        total = None
        for theta_key, value in kernel(state.rel, group_binding):
            if theta_key != key:
                continue
            total = value if total is None else spec.aggregator.combine(total, value)
        return total
