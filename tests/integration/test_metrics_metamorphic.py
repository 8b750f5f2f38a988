"""Cross-engine metamorphic test: identical results, consistent metrics.

All four engines must export identical relations on the same analysis
instance, and every engine's metrics must satisfy the structural
invariants of the observability layer:

* ``sum(delta_sizes) + delta_tuples_folded == tuples_derived`` — the
  delta-size convention (every derivation enters the frontier in exactly
  one round, retained in the bounded window or folded out of it);
* ``tuples_derived >= |exported IDB tuples|`` — nothing appears in an
  exported relation without having been derived;
* per-stratum totals sum to the global totals.

Run on corpus presets so the numbers come from realistic rule/fact shapes,
and with metrics both enabled and disabled to pin the metamorphic part:
collection must not change results.
"""

import pytest

from repro.analyses import constant_propagation, sign_analysis, taint_analysis
from repro.corpus import load_subject
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.metrics import SolverMetrics, TraceSink

ALL_ENGINES = [NaiveSolver, SemiNaiveSolver, DRedLSolver, LaddderSolver]

CASES = {
    "sign-minijavac": (sign_analysis, "minijavac"),
    "constprop-minijavac": (constant_propagation, "minijavac"),
    "sign-emma": (sign_analysis, "emma"),
}


def solve_with_metrics(instance, engine_cls):
    metrics = SolverMetrics()
    solver = instance.make_solver(engine_cls, metrics=metrics)
    exported = {p: solver.relation(p) for p in solver.program.exported_predicates()}
    return solver, metrics, exported


def assert_invariants(engine_cls, metrics, exported, idb):
    name = engine_cls.__name__
    total_delta = sum(
        sum(s.delta_sizes) + s.delta_tuples_folded
        for s in metrics.strata.values()
    )
    assert total_delta == metrics.tuples_derived, (
        f"{name}: delta sizes {total_delta} != derivations "
        f"{metrics.tuples_derived}"
    )
    exported_idb = sum(len(rows) for p, rows in exported.items() if p in idb)
    assert metrics.tuples_derived >= exported_idb, (
        f"{name}: derived {metrics.tuples_derived} < exported {exported_idb}"
    )
    assert metrics.tuples_derived == sum(
        s.tuples_derived for s in metrics.strata.values()
    )
    assert metrics.tuples_deduplicated == sum(
        s.tuples_deduplicated for s in metrics.strata.values()
    )
    assert metrics.strata, f"{name}: no strata recorded"
    for s in metrics.strata.values():
        assert s.rounds == len(s.delta_sizes) + s.delta_rounds_folded
        assert s.seconds >= 0.0
    assert metrics.engine == name


@pytest.mark.parametrize("case", sorted(CASES))
def test_engines_agree_and_metrics_consistent(case):
    build, subject_name = CASES[case]
    subject = load_subject(subject_name)
    instance = build(subject)
    baseline = None
    for engine_cls in ALL_ENGINES:
        solver, metrics, exported = solve_with_metrics(instance, engine_cls)
        if baseline is None:
            baseline = exported
        else:
            assert exported == baseline, f"{engine_cls.__name__} diverges on {case}"
        assert_invariants(engine_cls, metrics, exported, solver.idb)


@pytest.mark.parametrize("engine_cls", ALL_ENGINES)
def test_collection_does_not_change_results(engine_cls):
    instance = sign_analysis(load_subject("minijavac"))
    plain = instance.make_solver(engine_cls)
    profiled = instance.make_solver(engine_cls, metrics=SolverMetrics())
    preds = plain.program.exported_predicates()
    assert {p: plain.relation(p) for p in preds} == {
        p: profiled.relation(p) for p in preds
    }


def test_update_epoch_metrics_laddder():
    instance = sign_analysis(load_subject("minijavac"))
    metrics = SolverMetrics()
    solver = instance.make_solver(LaddderSolver, metrics=metrics)
    assert metrics.timeline_entries > 0
    pred, rows = next(
        (p, r) for p, r in instance.facts.items() if r and p in solver.edb
    )
    row = next(iter(rows))
    support_before = metrics.support_updates
    solver.update(deletions={pred: {row}})
    solver.update(insertions={pred: {row}})
    assert metrics.epochs == 2
    assert metrics.support_updates > support_before
    assert metrics.update_seconds > 0.0
    # The invariant must keep holding across epochs.
    total_delta = sum(
        sum(s.delta_sizes) + s.delta_tuples_folded
        for s in metrics.strata.values()
    )
    assert total_delta == metrics.tuples_derived


class StratumEvents(TraceSink):
    """Records the stratum events, in order."""

    def __init__(self):
        self.events = []

    def on_stratum_start(self, index, predicates):
        self.events.append(("start", index))

    def on_stratum_end(self, index, seconds):
        self.events.append(("end", index))


def test_update_epoch_metrics_every_engine():
    """An update epoch (delete, then re-insert, one EDB row) keeps the
    delta-size convention and the per-stratum sums on every engine, and
    the pipeline brackets exactly the visited strata, in order, each once
    per epoch; the visited strata are the same on every engine.  Taint
    has six strata; a ``callret`` edit visits four of them (``seedvar``,
    points-to, taint, ``sink_alert``) and skips ``tmove`` and
    ``lookupany``."""
    instance = taint_analysis(load_subject("minijavac"))
    pred, row = "callret", min(instance.facts["callret"])
    visits = {}
    for engine_cls in ALL_ENGINES:
        sink = StratumEvents()
        metrics = SolverMetrics(sink=sink)
        solver = instance.make_solver(engine_cls, metrics=metrics)
        epochs = []
        for batch in ({"deletions": {pred: {row}}}, {"insertions": {pred: {row}}}):
            sink.events.clear()
            skipped = metrics.strata_skipped
            solver.update(**batch)
            starts = [index for kind, index in sink.events[::2]]
            assert sink.events == [
                (kind, index) for index in starts for kind in ("start", "end")
            ]
            assert starts == sorted(set(starts))
            assert len(starts) + metrics.strata_skipped - skipped == len(
                solver.components
            )
            epochs.append(starts)
        visits[engine_cls] = epochs
        exported = {p: solver.relation(p) for p in solver.program.exported_predicates()}
        assert_invariants(engine_cls, metrics, exported, solver.idb)
    assert all(epochs == visits[LaddderSolver] for epochs in visits.values())
    assert [len(starts) for starts in visits[LaddderSolver]] == [4, 4]
