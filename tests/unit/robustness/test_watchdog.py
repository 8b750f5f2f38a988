"""Unit tests for fixpoint watchdog budgets."""

import pytest

from repro.config import SolverConfig
from repro.datalog.errors import BudgetExceededError, SolverError
from repro.engines import LaddderSolver, SemiNaiveSolver
from repro.robustness.watchdog import DEFAULT_MAX_CHAIN, Budget

from ..engines.helpers import load, tc_facts, tc_program


class TestBudgetConfig:
    def test_defaults(self):
        b = Budget()
        assert b.max_iterations is None
        assert b.deadline is None
        assert b.max_chain == DEFAULT_MAX_CHAIN

    def test_iterations_is_min_of_budget_and_engine(self):
        assert Budget().iterations(500) == 500
        assert Budget(max_iterations=10).iterations(500) == 10
        # An engine instance override tighter than the budget wins.
        assert Budget(max_iterations=10).iterations(3) == 3

    # The environment reaches a Budget through SolverConfig.from_env (the
    # parsing table itself is tests/unit/test_config.py).

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ITERS", "7")
        monkeypatch.setenv("REPRO_MAX_CHAIN", "9")
        b = SemiNaiveSolver(tc_program()).budget
        assert b.max_iterations == 7
        assert b.max_chain == 9

    def test_from_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_ITERS", raising=False)
        monkeypatch.delenv("REPRO_MAX_CHAIN", raising=False)
        b = SemiNaiveSolver(tc_program()).budget
        assert b.max_iterations is None
        assert b.max_chain == DEFAULT_MAX_CHAIN

    @pytest.mark.parametrize("value", ["zero", "-3", "0"])
    def test_bad_env_rejected(self, monkeypatch, value):
        # A configuration mistake, not a watchdog trip (CLI exit 2, not 3).
        monkeypatch.setenv("REPRO_MAX_ITERS", value)
        with pytest.raises(SolverError, match="REPRO_MAX_ITERS") as caught:
            SemiNaiveSolver(tc_program())
        assert not isinstance(caught.value, BudgetExceededError)


class TestDeadline:
    def test_no_deadline_never_trips(self):
        b = Budget()
        b.begin()
        b.poll("anywhere")

    def test_expired_deadline_trips_with_context(self):
        b = Budget(deadline=-1.0)  # already expired, no clock sensitivity
        b.begin()
        with pytest.raises(BudgetExceededError, match="deadline.*my fixpoint"):
            b.poll("my fixpoint")

    def test_generous_deadline_passes(self):
        b = Budget(deadline=3600.0)
        b.begin()
        b.poll("fast step")


class TestAscendingChain:
    def test_trips_per_group_not_globally(self):
        b = Budget(max_chain=3)
        b.begin()
        # Many groups each advancing a little: fine.
        for key in range(10):
            for _ in range(3):
                b.chain_advance("val", (key,))
        # One group outrunning the budget: trips.
        with pytest.raises(BudgetExceededError, match="non-Noetherian"):
            b.chain_advance("val", (0,))

    def test_begin_resets_chains(self):
        b = Budget(max_chain=2)
        b.begin()
        b.chain_advance("val", ("x",))
        b.chain_advance("val", ("x",))
        b.begin()
        b.chain_advance("val", ("x",))  # fresh solve, fresh chains


class TestEngineIntegration:
    def test_iteration_budget_trips_solver(self):
        solver = SemiNaiveSolver(
            tc_program(), config=SolverConfig(max_iterations=2)
        )
        solver.add_facts("edge", {(i, i + 1) for i in range(10)})
        with pytest.raises(SolverError, match="iterations"):
            solver.solve()
        assert solver.metrics.watchdog_trips == 1

    def test_deadline_trips_update(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3)}))
        solver.budget.deadline = -1.0  # already expired
        with pytest.raises(BudgetExceededError, match="deadline"):
            solver.update(insertions={"edge": {(3, 4)}})
        assert solver.metrics.watchdog_trips == 1

    def test_env_budget_reaches_new_solvers(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ITERS", "2")
        solver = SemiNaiveSolver(tc_program())
        assert solver.budget.max_iterations == 2
