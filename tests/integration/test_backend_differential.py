"""Differential: the storage backend is observationally invisible.

Every public observation a solver makes — exported relations after the
initial solve, after each update epoch, the per-epoch update stats, and
the staged facts view — must be bit-equal between ``SolverConfig.backend``
``"object"`` and ``"columnar"``, for all four engines on the constprop and
k-update points-to analyses.  This is the contract the interning layer
(:mod:`repro.engines.intern`) promises: handles exist only inside the
solver, and every boundary externs them back to the original constants.
"""

import pytest

from repro.analyses import constant_propagation, kupdate_pointsto
from repro.changes import alloc_site_changes, literal_to_zero_changes
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]
ANALYSES = {
    "constprop": (constant_propagation, literal_to_zero_changes),
    "pointsto-kupdate": (kupdate_pointsto, alloc_site_changes),
}
#: Scaled subject: the property is storage equivalence, not throughput —
#: NaiveSolver re-solves from scratch on every epoch.
SCALE = 0.4
EPOCHS = 3


def _observe(backend, engine_cls, analysis_name):
    """Run one full solve + change series; return every public observation."""
    build, generator = ANALYSES[analysis_name]
    instance = build(load_subject("minijavac", scale=SCALE))
    changes = generator(instance, EPOCHS, seed=11)[:EPOCHS]
    solver = instance.make_solver(engine_cls, config=SolverConfig(backend=backend))
    observations = [("solve", solver.relations())]
    for i, change in enumerate(changes):
        stats = solver.update(
            insertions=change.insertions, deletions=change.deletions
        )
        observations.append(
            (f"epoch-{i}", solver.relations(), stats.inserted, stats.deleted)
        )
    observations.append(
        ("facts", {pred: solver.facts(pred) for pred in instance.facts})
    )
    return observations


@pytest.mark.parametrize("analysis_name", list(ANALYSES))
@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda e: e.__name__)
def test_backends_bit_equal(engine_cls, analysis_name):
    reference = _observe("object", engine_cls, analysis_name)
    columnar = _observe("columnar", engine_cls, analysis_name)
    for ref, col in zip(reference, columnar):
        assert ref == col, f"backend divergence at {ref[0]}"
