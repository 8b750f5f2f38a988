"""Unit tests for transactional updates (UpdateGuard / GuardedSolver)."""

import pytest

from repro.config import SolverConfig
from repro.datalog.errors import BudgetExceededError, RollbackError
from repro.engines import (
    DRedLSolver,
    LaddderSolver,
    NaiveSolver,
    SemiNaiveSolver,
)
from repro.robustness import GuardedSolver, inject
from repro.robustness.guard import UpdateGuard

from ..engines.helpers import (
    const_prop_program,
    figure3_facts,
    load,
    singleton_pointsto_program,
    tc_facts,
    tc_program,
)

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]


def exported_state(solver):
    return {
        pred: solver.relation(pred)
        for pred in solver.program.exported_predicates()
    }


def deep_state(solver):
    """The solver's logical state, down to timelines and group totals.

    Deliberately excludes lazily built column indexes — those are caches
    (rebuilt on demand, content derived from the tuple population), and a
    failed update may legitimately leave new ones behind."""
    snap = {
        "facts": {p: set(r) for p, r in solver._facts.items()},
        "exported": {
            p: set(r.tuples) for p, r in solver._exported.relations.items()
        },
    }
    raw = getattr(solver, "_raw", None)
    if raw is not None:
        snap["raw"] = {p: set(r.tuples) for p, r in raw.relations.items()}
    for i, comp in enumerate(getattr(solver, "_states", ())):
        rels = {}
        for pred, rel in comp.relations.items():
            timelines = getattr(rel, "timelines", None)
            if timelines is not None:
                rels[pred] = {
                    row: tuple(tl.entries()) for row, tl in timelines.items()
                }
            else:
                rels[pred] = set(rel.tuples)
        snap[f"comp{i}.rels"] = rels
        totals = getattr(comp, "totals", None)
        if totals is not None:
            snap[f"comp{i}.totals"] = {p: dict(g) for p, g in totals.items()}
        groups = getattr(comp, "groups", None)
        if groups is not None:
            snap[f"comp{i}.groups"] = {
                pred: {
                    key: (
                        dict(g._totals),
                        tuple(g._times),
                        {t: len(tree) for t, tree in getattr(g, "_trees", {}).items()},
                        {
                            t: sorted(map(repr, vals))
                            for t, vals in getattr(g, "_values", {}).items()
                        },
                    )
                    for key, g in per_pred.items()
                }
                for pred, per_pred in groups.items()
            }
    return snap


@pytest.mark.parametrize("engine", ENGINES)
class TestRollback:
    def test_fault_rolls_back_bit_equal(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        guarded = GuardedSolver(solver, fallback=False)
        before = deep_state(solver)
        with inject("kernel.emit") as plan:
            with pytest.raises(RollbackError, match="rolled back"):
                guarded.update(
                    insertions={"edge": {(3, 4)}}, deletions={"edge": {(1, 2)}}
                )
        assert plan.fired == 1
        assert deep_state(solver) == before
        assert solver.metrics.rollbacks == 1

    def test_rollback_chains_cause(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2)}))
        guarded = GuardedSolver(solver, fallback=False)
        with inject("kernel.emit", exc=ZeroDivisionError):
            with pytest.raises(RollbackError) as info:
                guarded.update(insertions={"edge": {(2, 3)}})
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_solver_still_usable_after_rollback(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        guarded = GuardedSolver(solver, fallback=False)
        with inject("kernel.emit"):
            with pytest.raises(RollbackError):
                guarded.update(insertions={"edge": {(3, 4)}})
        guarded.update(insertions={"edge": {(3, 4)}})
        reference = load(
            SemiNaiveSolver, tc_program(), tc_facts({(1, 2), (2, 3), (3, 4)})
        )
        assert guarded.relation("tc") == reference.relation("tc")

    def test_budget_trip_rolls_back_and_reraises(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        guarded = GuardedSolver(solver)  # fallback ON: must still re-raise
        before = exported_state(guarded)
        guarded.budget.deadline = -1.0  # already expired
        with pytest.raises(BudgetExceededError):
            guarded.update(insertions={"edge": {(3, 4)}})
        guarded.budget.deadline = None
        assert exported_state(guarded) == before
        assert solver.metrics.rollbacks == 1
        assert solver.metrics.fallback_resolves == 0


@pytest.mark.parametrize("engine", ENGINES)
class TestFallback:
    def test_fallback_matches_reference(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        guarded = GuardedSolver(solver, fallback=True)
        with inject("kernel.emit") as plan:
            stats = guarded.update(
                insertions={"edge": {(3, 4)}}, deletions={"edge": {(1, 2)}}
            )
        assert plan.fired == 1
        reference = load(
            SemiNaiveSolver, tc_program(), tc_facts({(2, 3), (3, 4)})
        )
        assert guarded.relation("tc") == reference.relation("tc")
        assert guarded.metrics.fallback_resolves == 1
        assert guarded.metrics.rollbacks == 1
        # The returned diff reflects the actual exported change.
        assert stats.impact > 0

    def test_fallback_swaps_inner_solver(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2)}))
        guarded = GuardedSolver(solver, fallback=True)
        with inject("kernel.emit"):
            guarded.update(insertions={"edge": {(2, 3)}})
        # A fresh solver of the same engine, not the failed one.
        assert type(guarded.solver) is engine and guarded.solver is not solver
        # Subsequent updates keep working on the adopted solver.
        guarded.update(insertions={"edge": {(3, 4)}})
        assert (1, 4) in guarded.relation("tc")

    def test_fallback_stats_are_the_new_solvers_last_stats(self, engine):
        """A degraded epoch returns what an unfaulted one would: set-valued
        ``UpdateStats``, also the adopted solver's ``last_stats``."""
        batch = {"insertions": {"edge": {(3, 4)}}, "deletions": {"edge": {(1, 2)}}}
        twin = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        expected = twin.update(**batch)
        guarded = GuardedSolver(
            load(engine, tc_program(), tc_facts({(1, 2), (2, 3)})), fallback=True
        )
        with inject("kernel.emit"):
            stats = guarded.update(**batch)
        assert guarded.metrics.fallback_resolves == 1
        assert guarded.last_stats is stats
        assert (stats.inserted, stats.deleted) == (expected.inserted, expected.deleted)
        assert stats.inserted and stats.deleted
        for rows in (*stats.inserted.values(), *stats.deleted.values()):
            assert type(rows) is set


@pytest.mark.parametrize("engine", ENGINES)
def test_install_copies_no_state(engine):
    """Every container an engine declares is journaled, so opening a
    transaction records references only: each restore holds the live
    object itself (group totals included)."""
    solver = load(engine, singleton_pointsto_program(), figure3_facts())
    guard = UpdateGuard(solver).install()
    try:
        assert guard._attr_restores
        for owner, name, value in guard._attr_restores:
            assert value is getattr(owner, name), f"{name} was copied"
    finally:
        guard.commit()


class TestLatticeRollback:
    """Aggregation state (timelines, group trees, totals) restores too."""

    @pytest.mark.parametrize("engine", [LaddderSolver, DRedLSolver])
    def test_pointsto_rollback(self, engine):
        solver = load(engine, singleton_pointsto_program(), figure3_facts())
        guarded = GuardedSolver(solver, fallback=False)
        before = deep_state(solver)
        change = {"alloc": {("c", "F2", "proc")}}
        with inject("aggregate.combine") as plan:
            with pytest.raises(RollbackError):
                guarded.update(deletions=change)
        assert plan.fired == 1
        assert deep_state(solver) == before
        # The same deletion then succeeds and matches a fresh solve.
        guarded.update(deletions=change)
        facts = figure3_facts()
        facts["alloc"] = facts["alloc"] - change["alloc"]
        reference = load(engine, singleton_pointsto_program(), facts)
        assert exported_state(guarded) == exported_state(reference)

    def test_laddder_timeline_fault(self):
        solver = load(
            LaddderSolver,
            const_prop_program(),
            {"lit": {("x", 1)}, "copy": {("y", "x")}},
        )
        guarded = GuardedSolver(solver, fallback=False)
        before = exported_state(guarded)
        with inject("timeline.append", at=2) as plan:
            with pytest.raises(RollbackError):
                guarded.update(insertions={"lit": {("y", 2)}})
        assert plan.fired == 1
        assert exported_state(guarded) == before


class TestEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_guarded_equals_unguarded_without_faults(self, engine):
        plain = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        wrapped = GuardedSolver(
            load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        )
        changes = [
            ({"edge": {(3, 4)}}, None),
            (None, {"edge": {(1, 2)}}),
            ({"edge": {(4, 1), (0, 1)}}, {"edge": {(2, 3)}}),
        ]
        for insertions, deletions in changes:
            s1 = plain.update(insertions=insertions, deletions=deletions)
            s2 = wrapped.update(insertions=insertions, deletions=deletions)
            assert exported_state(plain) == exported_state(wrapped)
            assert (s1.impact, s1.work) == (s2.impact, s2.work)
        assert wrapped.metrics.rollbacks == 0
        assert wrapped.metrics.fallback_resolves == 0

    def test_delegation(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        guarded = GuardedSolver(solver)
        assert guarded.relation("tc") == solver.relation("tc")
        assert guarded.program is solver.program
        assert guarded.metrics is solver.metrics


class TestSelfCheckGate:
    def test_self_check_runs_before_commit(self):
        solver = load(
            LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3)}),
            config=SolverConfig.from_env(self_check=True),
        )
        guarded = GuardedSolver(solver)
        guarded.update(insertions={"edge": {(3, 4)}})
        assert solver.metrics.selfcheck_seconds > 0.0

    def test_guarded_solve_fallback(self):
        solver = SemiNaiveSolver(tc_program())
        solver.add_facts("edge", {(1, 2), (2, 3)})
        guarded = GuardedSolver(solver, fallback=True)
        with inject("kernel.emit"):
            guarded.solve()
        assert guarded.metrics.fallback_resolves == 1
        assert (1, 3) in guarded.relation("tc")
