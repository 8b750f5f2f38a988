"""Runtime invariant validation for the four engines (``--self-check``).

Each engine's incrementality rests on structural invariants the paper
states but normal evaluation never re-verifies: Laddder's settled
timelines are all-non-negative and its rolled-up group totals equal the
fold of their aggregand trees; DRedL's stored group totals equal the fold
of the surviving aggregands; the re-solving engines' exported views are
exactly the pruned fixpoint and the fixpoint is actually closed under the
rules.  A bug (or bit flip, or misbehaving user aggregator) that corrupts
one of these silently poisons every downstream stratum.

Self-check mode validates them between strata and after guarded updates,
raising :class:`InvariantViolationError` with a diagnostic ``dump`` — the
engine, component, predicate, and violated invariant — so the failure is
a reproducible bug report instead of a wrong analysis result.

Cost: checks re-fold aggregation groups and re-enumerate rule kernels, so
expect self-checked runs to be several times slower; the time is metered
into the ``selfcheck_seconds`` counter.
"""

from __future__ import annotations

from ..datalog.errors import InvariantViolationError


def _violation(solver, index: int, invariant: str, **detail) -> None:
    dump = {
        "engine": type(solver).__name__,
        "component": index,
        "invariant": invariant,
    }
    dump.update(detail)
    raise InvariantViolationError(
        f"self-check failed in {dump['engine']} component {index}: "
        f"{invariant}" + (f" ({detail})" if detail else ""),
        dump=dump,
    )


def check_solver(solver) -> None:
    """Validate every component plus the EDB view of the exported store."""
    for pred, rows in solver._facts.items():
        if not rows and pred not in solver.arities:
            continue
        stored = set(solver._exported.get(pred).tuples)
        if stored != rows:
            _violation(
                solver, -1, "exported EDB relation out of sync with staged facts",
                pred=pred, missing=sorted(rows - stored, key=repr)[:5],
                extra=sorted(stored - rows, key=repr)[:5],
            )
    for index in range(len(solver.components)):
        check_component(solver, index)


def check_component(solver, index: int) -> None:
    """Dispatch to the engine-specific invariant suite for one component."""
    from ..engines.dred import DRedLSolver
    from ..engines.laddder.solver import LaddderSolver
    from ..engines.resolving import ResolvingSolver

    if isinstance(solver, LaddderSolver):
        _check_laddder(solver, index)
    elif isinstance(solver, DRedLSolver):
        _check_dred(solver, index)
    elif isinstance(solver, ResolvingSolver):
        _check_resolving(solver, index)
    # Unknown engine classes simply have no registered invariants.


# -- Laddder ---------------------------------------------------------------


def _check_laddder(solver, index: int) -> None:
    state = solver._states[index]
    component_preds = state.component.predicates
    exports = solver.program.exported_predicates()

    for pred, relation in state.relations.items():
        for row, timeline in relation.timelines.items():
            if not timeline:
                _violation(
                    solver, index,
                    "empty timeline left behind (cleanup invariant)",
                    pred=pred, row=row,
                )
            if not timeline.is_settled():
                _violation(
                    solver, index,
                    "settled timeline has a negative delta "
                    "(inflationary monotonicity)",
                    pred=pred, row=row,
                    entries=list(timeline.entries()),
                )
            running = 0
            for t, d in timeline.entries():
                running += d
                if running < 0:
                    _violation(
                        solver, index,
                        "cumulative support count went negative",
                        pred=pred, row=row, timestamp=t,
                    )

    for pred, per_pred in state.groups.items():
        for key, group in per_pred.items():
            if not group:
                _violation(
                    solver, index, "empty aggregation group retained",
                    pred=pred, key=key,
                )
            problem = group.check_consistency()
            if problem:
                _violation(
                    solver, index,
                    "group rolled-up totals inconsistent with aggregand trees",
                    pred=pred, key=key, detail=problem,
                )

    # Exported view (epoch consistency): the timeless exported store must
    # equal presence for plain predicates and pruned group finals for
    # aggregated ones.
    for pred in component_preds:
        if pred not in exports:
            continue
        stored = set(solver._exported.get(pred).tuples)
        if pred in state.specs:
            spec = state.specs[pred]
            expected = {
                spec.tuple_for(key, group.final())
                for key, group in state.groups[pred].items()
                if group
            }
        else:
            expected = state.rel(pred).present_tuples()
        if stored != expected:
            _violation(
                solver, index, "exported view out of sync with timelines",
                pred=pred,
                missing=sorted(expected - stored, key=repr)[:5],
                extra=sorted(stored - expected, key=repr)[:5],
            )


# -- DRedL -----------------------------------------------------------------


def _check_dred(solver, index: int) -> None:
    state = solver._states[index]
    exports = solver.program.exported_predicates()
    if state.specs and not state.recompute_kernels:
        # Restored and not visited since, so no table is bound yet: bind
        # what the first update visit would.
        solver._plan_component(state, update=True)

    for pred, totals in state.totals.items():
        spec = state.specs[pred]
        relation = state.rel(pred)
        for key, stored_total in totals.items():
            exact = solver._recompute_total(state, spec, key)
            if exact != stored_total:
                _violation(
                    solver, index,
                    "stored group total inconsistent with surviving aggregands",
                    pred=pred, key=key, stored=stored_total, recomputed=exact,
                )
            if spec.tuple_for(key, stored_total) not in relation:
                _violation(
                    solver, index,
                    "final group total has no backing aggregate tuple",
                    pred=pred, key=key, total=stored_total,
                )

    for pred in state.component.predicates:
        if pred not in exports:
            continue
        stored = set(solver._exported.get(pred).tuples)
        if solver.inflationary and pred in state.specs:
            spec = state.specs[pred]
            expected = {
                spec.tuple_for(key, total)
                for key, total in state.totals[pred].items()
            }
        else:
            expected = set(state.rel(pred).tuples)
        if stored != expected:
            _violation(
                solver, index, "exported view out of sync with DRed state",
                pred=pred,
                missing=sorted(expected - stored, key=repr)[:5],
                extra=sorted(stored - expected, key=repr)[:5],
            )


# -- naive / semi-naive ----------------------------------------------------


def _check_resolving(solver, index: int) -> None:
    """The re-solving engines: exported == prune(raw), and the raw fixpoint
    is actually closed under the component's (non-aggregation) rules —
    the stratum-completion invariant."""
    from ..engines.aggspec import compile_agg_specs, prune_aggregated

    component = solver.components[index]
    specs = compile_agg_specs(component.rules, solver.program)
    exports = solver.program.exported_predicates()

    for pred in component.predicates:
        raw = set(solver._raw.get(pred).tuples)
        if pred in exports:
            stored = set(solver._exported.get(pred).tuples)
            if pred in specs:
                expected = prune_aggregated(raw, specs[pred])
            else:
                expected = raw
            if stored != expected:
                _violation(
                    solver, index, "exported view is not the pruned fixpoint",
                    pred=pred,
                    missing=sorted(expected - stored, key=repr)[:5],
                    extra=sorted(stored - expected, key=repr)[:5],
                )

    def lookup(pred: str):
        if pred in component.predicates:
            return solver._raw.get(pred)
        return solver._exported.get(pred)

    for rule in component.rules:
        if rule.is_aggregation:
            continue
        kernel = solver.kernels.kernel(rule).fn
        target = solver._raw.get(rule.head.pred)
        for head_row in kernel(lookup):
            if head_row not in target:
                _violation(
                    solver, index,
                    "fixpoint not closed under rule (stratum completion)",
                    rule=repr(rule), head=head_row,
                )
