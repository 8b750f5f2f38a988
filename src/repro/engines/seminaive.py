"""Semi-naive bottom-up solver — the non-incremental performance baseline.

Section 4.1: *"Laddder follows a semi-naïve evaluation strategy: in each
iteration of the fixpoint computation, Laddder only considers new tuples
from the previous iteration instead of re-applying rules on the whole set of
tuples computed thus far."*  This engine is that strategy *without* the
incremental timeline machinery: per component it seeds from upstream, then
propagates per-round deltas through delta-pinned join plans, maintaining
running aggregation totals per group (inflationary — totals only advance
during an initial run, so a single running value per group suffices, and
it lives only as long as the component's fixpoint loop).

It computes the same ``D_raw``/``D_prune``/``D_exp`` as
:class:`repro.engines.naive.NaiveSolver` and stands in for Soufflé as the
from-scratch engine in the impact methodology (Section 3) and for DRedL's
initialization phase (Section 7.3: "its from-scratch initialization phase is
essentially a standard bottom-up Datalog fixpoint evaluation").
"""

from __future__ import annotations

from time import perf_counter

from ..datalog.planning import delta_occurrences
from ..metrics import StratumStats
from ..robustness import faults as _faults
from .aggspec import compile_agg_specs
from .base import Relations, StratumDiff
from .relation import RelationStore
from .resolving import ResolvingSolver


class SemiNaiveSolver(ResolvingSolver):
    """Delta-driven from-scratch evaluation with running aggregation totals."""

    def _solve_stratum(self, index: int, stratum: StratumStats | None) -> StratumDiff:
        component = self.components[index]
        metrics = self.metrics
        local = RelationStore(self.arities, metrics=self._store_metrics())
        specs = compile_agg_specs(component.rules, self.program)
        plain_rules = [r for r in component.rules if not r.is_aggregation]

        # Relation resolution is on every kernel's path, several probes per
        # call; once resolved, the relation object is stable for the rest of
        # this component visit, so cache the store dispatch away.
        exported = self._exported
        resolved = Relations(
            lambda pred: (
                local if pred in component.predicates else exported
            ).get(pred)
        )
        lookup = resolved.__getitem__

        # Resolve kernels once per component visit; each takes the greedy
        # most-bound-first plan, a function of the rule.
        full_kernels = [
            (rule, self.kernels.kernel(rule).fn)
            for rule in plain_rules
        ]
        # Delta kernels pinned on component-local positive occurrences,
        # grouped by the pinned predicate.
        pinned: dict[str, list[tuple]] = {}
        for rule in plain_rules:
            for i, literal in delta_occurrences(rule):
                if literal.pred in component.predicates:
                    pinned.setdefault(literal.pred, []).append(
                        (rule, self.kernels.kernel(rule, pinned=i).fn)
                    )
        seed_agg_kernels = {
            spec.pred: self.kernels.kernel(spec.rule, emit="keyvalue", spec=spec).fn
            for spec in specs.values()
            if spec.collecting_pred not in component.predicates
        }

        delta: dict[str, set[tuple]] = {}
        #: aggregated pred -> group key -> running total.
        running: dict[str, dict[tuple, object]] = {}
        #: [derived, deduplicated] — kept unconditionally (two cheap list
        #: increments); folded into ``metrics`` only when collection is on.
        counts = [0, 0]

        def derive(pred: str, row: tuple, next_delta: dict) -> None:
            if lookup(pred).add(row):
                next_delta.setdefault(pred, set()).add(row)
                counts[0] += 1
            else:
                counts[1] += 1

        def fold_rule(rule, t0: float, before: tuple[int, int]) -> None:
            metrics.rule_fired(
                repr(rule),
                counts[0] - before[0],
                counts[1] - before[1],
                perf_counter() - t0,
                stratum,
            )

        # Seed round: full evaluation (local relations are empty, so this
        # only fires rules satisfiable from upstream alone).
        for rule, kernel in full_kernels:
            if _faults.ACTIVE is not None:
                _faults.fire("kernel.emit")
            t0, before = (perf_counter(), tuple(counts)) if stratum else (0.0, (0, 0))
            for head_row in kernel(lookup):
                derive(rule.head.pred, head_row, delta)
            if stratum is not None:
                fold_rule(rule, t0, before)
        for spec in specs.values():
            if spec.collecting_pred not in component.predicates:
                before_agg = counts[0]
                self._seed_upstream_aggregation(
                    spec, running, seed_agg_kernels[spec.pred], lookup, derive, delta
                )
                if stratum is not None:
                    metrics.derivations(stratum, counts[0] - before_agg)
        if stratum is not None:
            metrics.round_delta(stratum, sum(len(rows) for rows in delta.values()))

        max_iterations = self.budget.iterations(self.MAX_ITERATIONS)
        for _ in range(max_iterations):
            if not delta:
                break
            self._poll_budget(f"semi-naive fixpoint, component {index}")
            next_delta: dict[str, set[tuple]] = {}
            for pred, rows in delta.items():
                for rule, kernel in pinned.get(pred, ()):
                    if _faults.ACTIVE is not None:
                        _faults.fire("kernel.emit")
                    t0, before = (
                        (perf_counter(), tuple(counts)) if stratum else (0.0, (0, 0))
                    )
                    head_pred = rule.head.pred
                    for row in rows:
                        for head_row in kernel(lookup, row):
                            derive(head_pred, head_row, next_delta)
                    if stratum is not None:
                        fold_rule(rule, t0, before)
                for spec in specs.values():
                    if spec.collecting_pred == pred:
                        before_agg = counts[0]
                        self._advance_aggregation(spec, running, rows, derive, next_delta)
                        if stratum is not None:
                            metrics.derivations(stratum, counts[0] - before_agg)
            if stratum is not None:
                metrics.round_delta(
                    stratum, sum(len(rows) for rows in next_delta.values())
                )
            delta = next_delta
        else:
            raise self._budget_exceeded(
                f"component {sorted(component.predicates)} exceeded "
                f"{max_iterations} rounds of iterations — diverging analysis?"
            )

        return self._export_component(component, local, specs)

    def _seed_upstream_aggregation(
        self, spec, running, kernel, lookup, derive, delta
    ) -> None:
        """Aggregate a collecting relation that lives upstream: its content
        is static during this component, so a single full pass suffices."""
        if _faults.ACTIVE is not None:
            _faults.fire("aggregate.combine")
        totals = running.setdefault(spec.pred, {})
        combine = spec.aggregator.combine
        for key, value in kernel(lookup):
            if key in totals:
                totals[key] = combine(totals[key], value)
            else:
                totals[key] = value
        for key, total in totals.items():
            derive(spec.pred, spec.tuple_for(key, total), delta)

    def _advance_aggregation(
        self, spec, running, collect_rows, derive, next_delta
    ) -> None:
        """Fold newly collected aggregands into running group totals; emit a
        new inflationary total tuple when a group's total advances."""
        if _faults.ACTIVE is not None:
            _faults.fire("aggregate.combine")
        totals = running.setdefault(spec.pred, {})
        combine = spec.aggregator.combine
        extract = self.kernels.extractor(spec)
        touched: set[tuple] = set()
        for row in collect_rows:
            split = extract(row)
            if split is None:
                continue
            key, value = split
            if key in totals:
                new_total = combine(totals[key], value)
            else:
                new_total = value
            if key not in totals or new_total != totals[key]:
                totals[key] = new_total
                touched.add(key)
                self._chain_advance(spec.pred, key)
        for key in touched:
            derive(spec.pred, spec.tuple_for(key, totals[key]), next_delta)
