"""The naive reference solver — the executable semantics of Section 6.3.

Per dependency component, iterate the *inflationary consequence operator*
``T̂`` on full relations until fixpoint (``D_raw = T̂ω``), then prune
aggregated predicates to their final aggregate per group (``D_prune``) and
export (``D_exp``).  No deltas, no timestamps: this engine is deliberately
simple, and every other engine is checked against it.

``update`` (the shared pipeline, :mod:`repro.engines.resolving`) re-solves
every component whose inputs changed from scratch — the Soufflé-style non-incremental
behaviour the paper contrasts with — and reports the exported diff, exactly
what the impact methodology of Section 3 measures.
"""

from __future__ import annotations

from time import perf_counter

from ..datalog.stratify import Component
from ..robustness import faults as _faults
from .aggspec import AggSpec, compile_agg_specs
from .relation import IndexedRelation, RelationStore
from .resolving import ResolvingSolver


class NaiveSolver(ResolvingSolver):
    """Iterate ``T̂`` to fixpoint on full relations; prune; export."""

    def _solve_component(self, component: Component, index: int) -> None:
        metrics = self.metrics
        stratum = (
            metrics.stratum(index, component.predicates) if metrics.active else None
        )
        started = perf_counter() if stratum is not None else 0.0
        local = RelationStore(self.arities, metrics=self._store_metrics())
        specs = compile_agg_specs(component.rules, self.program)

        def lookup(pred: str) -> IndexedRelation:
            if pred in component.predicates:
                return local.get(pred)
            return self._exported.get(pred)

        # Resolve the per-rule kernels once for the whole component; each
        # takes the greedy most-bound-first plan, a function of the rule.
        kernels = [
            (rule, self.kernels.kernel(rule).fn)
            for rule in component.rules
            if not rule.is_aggregation
        ]
        agg_kernels = {
            spec.pred: self.kernels.kernel(spec.rule, emit="keyvalue", spec=spec).fn
            for spec in specs.values()
        }

        max_iterations = self.budget.iterations(self.MAX_ITERATIONS)
        for iteration in range(max_iterations):
            self._poll_budget(f"naive fixpoint, component {index}")
            changed = False
            round_new = 0
            for rule, kernel in kernels:
                if _faults.ACTIVE is not None:
                    _faults.fire("kernel.emit")
                target = local.get(rule.head.pred)
                if stratum is None:
                    for head_row in kernel(lookup):
                        if target.add(head_row):
                            changed = True
                else:
                    t0 = perf_counter()
                    derived = dedup = 0
                    for head_row in kernel(lookup):
                        if target.add(head_row):
                            derived += 1
                        else:
                            dedup += 1
                    metrics.rule_fired(
                        repr(rule), derived, dedup, perf_counter() - t0, stratum
                    )
                    if derived:
                        changed = True
                        round_new += derived
            for spec in specs.values():
                advanced = self._apply_aggregation(
                    spec, agg_kernels[spec.pred], lookup, local
                )
                if advanced:
                    changed = True
                    round_new += advanced
                    if stratum is not None:
                        metrics.derivations(stratum, advanced)
            if stratum is not None:
                metrics.round_delta(stratum, round_new)
            if not changed:
                break
        else:
            raise self._budget_exceeded(
                f"component {sorted(component.predicates)} exceeded "
                f"{max_iterations} iterations — diverging analysis? "
                f"(check eventual ⊑-monotonicity and widening)"
            )

        self._export_component(component, local, specs)
        if stratum is not None:
            metrics.stratum_end(stratum, perf_counter() - started)

    def _apply_aggregation(
        self, spec: AggSpec, kernel, lookup, local: RelationStore
    ) -> int:
        """One inflationary application: derive the current total per group
        (keeping previously derived totals — inflation).  Returns the number
        of newly derived total tuples."""
        if _faults.ACTIVE is not None:
            _faults.fire("aggregate.combine")
        groups: dict[tuple, object] = {}
        combine = spec.aggregator.combine
        for key, value in kernel(lookup):
            if key in groups:
                groups[key] = combine(groups[key], value)
            else:
                groups[key] = value
        target = local.get(spec.pred)
        advanced = 0
        for key, total in groups.items():
            if target.add(spec.tuple_for(key, total)):
                advanced += 1
        return advanced
