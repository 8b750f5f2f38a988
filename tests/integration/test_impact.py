"""Differential and property tests for impact-guided update scheduling.

Two guarantees:

* **Bit-equality** — impact-guided updates (the default) produce exactly
  the observations of a solver built with ``SolverConfig(impact=False)``, for
  all four engines, across an edit series that includes deletions.
  Skipping strata outside the static footprint must be observationally
  invisible.
* **Footprint soundness** — over a seeded soak stream, every predicate an
  epoch actually changes is inside the static impact footprint of the
  predicates the edit touched.  The static over-approximation really is
  an over-approximation.
"""

import pytest

from repro.analyses import constant_propagation, kupdate_pointsto
from repro.changes import alloc_site_changes, literal_to_zero_changes
from repro.changes.stream import EditStream, editor_for
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]
ANALYSES = {
    "constprop": (constant_propagation, literal_to_zero_changes),
    "pointsto-kupdate": (kupdate_pointsto, alloc_site_changes),
}
SCALE = 0.4
EPOCHS = 3


def _observe(engine_cls, analysis_name, *, impact):
    """Run solve + edit series; return every public observation."""
    build, generator = ANALYSES[analysis_name]
    instance = build(load_subject("minijavac", scale=SCALE))
    changes = generator(instance, EPOCHS, seed=23)[:EPOCHS]
    solver = instance.make_solver(engine_cls, config=SolverConfig(impact=impact))
    assert (solver.impact is not None) == impact
    observations = [("solve", solver.relations())]
    for i, change in enumerate(changes):
        stats = solver.update(
            insertions=change.insertions, deletions=change.deletions
        )
        observations.append(
            (f"epoch-{i}", solver.relations(), stats.inserted, stats.deleted)
        )
    return observations, solver.metrics


@pytest.mark.parametrize("analysis_name", list(ANALYSES))
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda e: e.__name__)
def test_impact_guided_updates_bit_equal(engine_cls, analysis_name):
    guided, metrics = _observe(engine_cls, analysis_name, impact=True)
    reference, _ = _observe(engine_cls, analysis_name, impact=False)
    for got, want in zip(guided, reference):
        assert got == want, f"impact divergence at {want[0]}"
    assert metrics.impact_seconds >= 0.0


def test_impact_skips_strata_on_sparse_edits():
    """Flow-only edits in constprop touch only the value stratum."""
    instance = constant_propagation(load_subject("minijavac", scale=SCALE))
    solver = instance.make_solver(SemiNaiveSolver)
    row = next(iter(solver.facts("flow")))
    before = solver.metrics.strata_skipped
    solver.update(deletions={"flow": [row]})
    solver.update(insertions={"flow": [row]})
    assert solver.metrics.strata_skipped > before
    assert solver.last_footprint is not None
    assert solver.last_footprint.touched == frozenset({"flow"})
    assert solver.last_footprint.strata_skipped >= 1


@pytest.mark.parametrize("analysis_name", ["constprop", "pointsto-kupdate"])
def test_soak_stream_changes_stay_inside_static_footprint(analysis_name):
    """Property: per-epoch exported deltas ⊆ the static impact closure of
    the EDB predicates the edit touched."""
    build, _ = ANALYSES[analysis_name]
    program = load_subject("minijavac", scale=SCALE)
    instance = build(program)
    solver = instance.make_solver(LaddderSolver)
    index = solver.impact
    assert index is not None
    stream = EditStream(editor_for(program, analysis_name), seed=5)
    for _ in range(25):
        change = stream.step().change
        touched = set(change.insertions) | set(change.deletions)
        stats = solver.update(
            insertions=change.insertions, deletions=change.deletions
        )
        footprint = index.footprint(touched)
        changed = {p for p, rows in stats.inserted.items() if rows}
        changed |= {p for p, rows in stats.deleted.items() if rows}
        assert changed <= footprint.predicates, (
            f"epoch changed {sorted(changed - footprint.predicates)} "
            f"outside the static footprint of {sorted(touched)}"
        )
        assert solver.last_footprint == footprint
