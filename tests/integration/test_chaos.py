"""Chaos suite: fault injection against every engine on a corpus preset.

The recovery guarantees of :mod:`repro.robustness` are only worth shipping
if they hold under *provoked* failure, on realistic inputs.  For every
engine and every in-engine fault site this suite injects an exception in
the middle of an incremental update and asserts the contract:

* ``fallback=False`` — the update raises :class:`RollbackError` and the
  solver's exported state is bit-equal to its pre-update state; the same
  update then succeeds cleanly and matches a from-scratch reference.
* ``fallback=True``  — the update *returns*, and the answer matches the
  from-scratch reference on the post-change facts.
* no faults — a guarded solver is observationally identical to an
  unguarded one along a whole change sequence (guarding must be a pure
  robustness transformation, like compilation is a pure performance one).

Sites a given engine never reaches (e.g. ``timeline.append`` outside
Laddder) degrade to the no-fault case and still assert correctness.
"""

from __future__ import annotations

import pytest

from repro.analyses import constant_propagation
from repro.changes import literal_to_zero_changes
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.datalog.errors import RollbackError
from repro.engines import (
    DRedLSolver,
    LaddderSolver,
    NaiveSolver,
    SemiNaiveSolver,
)
from repro.robustness import GuardedSolver, inject

ENGINES = [NaiveSolver, SemiNaiveSolver, DRedLSolver, LaddderSolver]

#: The fault sites that live inside engine evaluation.  checkpoint.write
#: and compile.build have dedicated regression tests next to their code.
ENGINE_SITES = ["kernel.emit", "aggregate.combine", "timeline.append"]


@pytest.fixture(scope="module")
def instance():
    return constant_propagation(load_subject("minijavac"))


def exported_state(solver):
    return {
        pred: solver.relation(pred)
        for pred in solver.program.exported_predicates()
    }


def reference_after(instance, changes):
    """A from-scratch semi-naive solve after applying ``changes``."""
    reference = instance.make_solver(SemiNaiveSolver)
    for change in changes:
        reference.update(insertions=change.insertions, deletions=change.deletions)
    return exported_state(reference)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("site", ENGINE_SITES)
def test_rollback_or_clean_update(instance, engine, site):
    """fallback=False: a mid-update fault must roll back bit-equal."""
    change = literal_to_zero_changes(instance, 1, seed=7)[0]
    guarded = GuardedSolver(instance.make_solver(engine), fallback=False)
    before = exported_state(guarded)
    fired = False
    with inject(site, at=3) as plan:
        try:
            guarded.update(
                insertions=change.insertions, deletions=change.deletions
            )
        except RollbackError:
            fired = True
    assert fired == (plan.fired > 0)
    if fired:
        # Bit-equal rollback, then the identical update succeeds.
        assert exported_state(guarded) == before
        assert guarded.metrics.rollbacks == 1
        guarded.update(insertions=change.insertions, deletions=change.deletions)
    assert exported_state(guarded) == reference_after(instance, [change])


@pytest.mark.parametrize("engine", ENGINES)
def test_fallback_resolve_matches_reference(instance, engine):
    """fallback=True: a poisoned epoch degrades to a from-scratch solve."""
    change = literal_to_zero_changes(instance, 1, seed=7)[0]
    guarded = GuardedSolver(instance.make_solver(engine), fallback=True)
    with inject("kernel.emit", at=3) as plan:
        stats = guarded.update(
            insertions=change.insertions, deletions=change.deletions
        )
    assert plan.fired == 1
    assert guarded.metrics.fallback_resolves == 1
    assert stats is not None
    assert exported_state(guarded) == reference_after(instance, [change])
    # The adopted reference engine keeps serving subsequent updates.
    revert = literal_to_zero_changes(instance, 1, seed=7)[1]
    guarded.update(insertions=revert.insertions, deletions=revert.deletions)
    assert exported_state(guarded) == reference_after(instance, [change, revert])


@pytest.mark.parametrize("engine", ENGINES)
def test_guarded_equals_unguarded_without_faults(instance, engine):
    """Property: with no faults, guarding changes nothing observable."""
    changes = literal_to_zero_changes(instance, 2, seed=3)
    plain = instance.make_solver(engine)
    guarded = GuardedSolver(
        instance.make_solver(engine, config=SolverConfig.from_env(self_check=True))
    )
    assert exported_state(plain) == exported_state(guarded)
    for change in changes:
        s1 = plain.update(
            insertions=change.insertions, deletions=change.deletions
        )
        s2 = guarded.update(
            insertions=change.insertions, deletions=change.deletions
        )
        assert exported_state(plain) == exported_state(guarded)
        assert (s1.impact, s1.work) == (s2.impact, s2.work)
    assert guarded.metrics.rollbacks == 0
    assert guarded.metrics.fallback_resolves == 0
    assert guarded.metrics.selfcheck_seconds > 0.0


def test_deep_rollback_on_lattice_state(instance):
    """A fault late in Laddder compensation (timeline already partially
    mutated) still restores timelines and group state exactly: the solver
    keeps producing reference-equal answers for the rest of the series."""
    changes = literal_to_zero_changes(instance, 2, seed=11)
    guarded = GuardedSolver(instance.make_solver(LaddderSolver), fallback=False)
    applied = []
    for i, change in enumerate(changes):
        if i == 1:
            with inject("timeline.append", at=4) as plan:
                try:
                    guarded.update(
                        insertions=change.insertions, deletions=change.deletions
                    )
                    applied.append(change)
                except RollbackError:
                    pass
            if plan.fired:
                # Retry the rolled-back change without the fault.
                guarded.update(
                    insertions=change.insertions, deletions=change.deletions
                )
                applied.append(change)
        else:
            guarded.update(
                insertions=change.insertions, deletions=change.deletions
            )
            applied.append(change)
    assert exported_state(guarded) == reference_after(instance, applied)
