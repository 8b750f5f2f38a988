"""The update pipeline's one skip rule: a stratum runs only when something
it reads changed.

Three guarantees:

* **Bit-equality** — after every epoch of an edit series that includes
  deletions, each engine's relations and ``UpdateStats`` equal what a
  from-scratch ``solve()`` of the current EDB gives.  Skipping strata must
  be observationally invisible.
* **Skipping** — strata whose inputs did not change are not run, on every
  engine: neither those no edited predicate reaches nor those an edit
  reaches statically but whose inputs come out unchanged.
* **Static soundness** — over a seeded soak stream, every predicate an
  epoch actually changes lies in the ``repro check --impact`` closure of
  the predicates the edit touched.
"""

import copy

import pytest

from repro.analyses import constant_propagation, kupdate_pointsto
from repro.changes import alloc_site_changes, literal_to_zero_changes
from repro.changes.stream import EditStream, editor_for
from repro.corpus import load_subject
from repro.datalog import parse
from repro.datalog.impact import ImpactIndex
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.metrics import SolverMetrics

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]
ANALYSES = {
    "constprop": (constant_propagation, literal_to_zero_changes),
    "pointsto-kupdate": (kupdate_pointsto, alloc_site_changes),
}
SCALE = 0.4
EPOCHS = 3


def _from_scratch(engine_cls, program, edb):
    solver = engine_cls(program)
    solver.replace_facts(edb)
    solver.solve()
    return solver.relations()


@pytest.mark.parametrize("analysis_name", list(ANALYSES))
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda e: e.__name__)
def test_impact_guided_updates_bit_equal(engine_cls, analysis_name):
    build, generator = ANALYSES[analysis_name]
    instance = build(load_subject("minijavac", scale=SCALE))
    changes = generator(instance, EPOCHS, seed=23)[:EPOCHS]
    solver = instance.make_solver(engine_cls)
    edb = {
        p: set(rows) for p, rows in instance.facts.items() if p not in solver.idb
    }
    before = _from_scratch(engine_cls, instance.program, edb)
    assert solver.relations() == before
    for i, change in enumerate(changes):
        stats = solver.update(
            insertions=change.insertions, deletions=change.deletions
        )
        for pred, rows in change.deletions.items():
            edb.setdefault(pred, set()).difference_update(rows)
        for pred, rows in change.insertions.items():
            edb.setdefault(pred, set()).update(rows)
        after = _from_scratch(engine_cls, instance.program, edb)
        assert solver.relations() == after, f"divergence at epoch {i}"
        assert stats.inserted == {
            p: after[p] - before[p] for p in after if after[p] - before[p]
        }, f"inserted diverges at epoch {i}"
        assert stats.deleted == {
            p: before[p] - after[p] for p in after if before[p] - after[p]
        }, f"deleted diverges at epoch {i}"
        before = after


def test_impact_skips_strata_on_sparse_edits():
    """Flow-only edits in constprop skip the strata that read no changed
    relation, on every engine."""
    instance = constant_propagation(load_subject("minijavac", scale=SCALE))
    for engine_cls in ENGINES:
        solver = instance.make_solver(engine_cls)
        row = next(iter(solver.facts("flow")))
        before = solver.metrics.strata_skipped
        solver.update(deletions={"flow": [row]})
        solver.update(insertions={"flow": [row]})
        assert solver.metrics.strata_skipped > before, engine_cls.__name__


#: Three strata: ``other`` (no edit reaches it), ``proj`` (the edit reaches
#: it, but the projection absorbs it) and ``top`` (statically reachable from
#: the edit, yet none of its inputs changes).
THREE_STRATA = """
    other(X) :- o(X).
    proj(X) :- e(X, _).
    top(X) :- proj(X).
    .export other, top.
"""


def test_statically_reached_stratum_with_unchanged_inputs_is_skipped(engine_cls):
    metrics = SolverMetrics(enabled=True)
    solver = engine_cls(parse(THREE_STRATA), metrics=metrics)
    solver.add_facts("o", {(1,)})
    solver.add_facts("e", {(1, 1), (2, 1)})
    solver.solve()
    exported = solver.relations()
    metrics.reset()
    stats = solver.update(insertions={"e": {(1, 2)}})
    assert stats.impact == 0 and solver.relations() == exported
    # Only ``proj`` ran; ``other`` and ``top`` were both skipped.
    assert [s.predicates for s in metrics.strata.values()] == [("proj",)]
    assert metrics.strata_skipped == 2


@pytest.mark.parametrize("analysis_name", ["constprop", "pointsto-kupdate"])
def test_soak_stream_changes_stay_inside_static_footprint(analysis_name):
    """Property: per-epoch exported deltas ⊆ the touched predicates plus the
    static impact closure of each (``ImpactIndex.affected_predicates``)."""
    build, _ = ANALYSES[analysis_name]
    program = copy.deepcopy(load_subject("minijavac", scale=SCALE))
    instance = build(program)
    solver = instance.make_solver(LaddderSolver)
    index = ImpactIndex(solver.program, solver.components)
    stream = EditStream(editor_for(program, analysis_name), seed=5)
    for _ in range(25):
        change = stream.step().change
        touched = set(change.insertions) | set(change.deletions)
        stats = solver.update(
            insertions=change.insertions, deletions=change.deletions
        )
        reach = set(touched)
        for pred in touched:
            reach |= index.affected_predicates(pred)
        changed = {p for p, rows in stats.inserted.items() if rows}
        changed |= {p for p, rows in stats.deleted.items() if rows}
        assert changed <= reach, (
            f"epoch changed {sorted(changed - reach)} "
            f"outside the static closure of {sorted(touched)}"
        )
