"""Unit tests for runtime invariant validation (self-check mode)."""

import pytest

from repro.config import SolverConfig
from repro.datalog.errors import InvariantViolationError
from repro.engines import (
    DRedLSolver,
    LaddderSolver,
    NaiveSolver,
    SemiNaiveSolver,
)
from repro.robustness import check_component, check_solver

from ..engines.helpers import (
    const_prop_program,
    figure3_facts,
    load,
    shortest_path_program,
    singleton_pointsto_program,
    tc_facts,
    tc_program,
)

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]

SP_FACTS = {"arc": {("a", "b", 2), ("b", "c", 3), ("a", "c", 9)}}


@pytest.mark.parametrize("engine", ENGINES)
class TestHealthyStatePasses:
    def test_plain_datalog(self, engine):
        check_solver(load(engine, tc_program(), tc_facts({(1, 2), (2, 3)})))

    def test_lattice_aggregation(self, engine):
        check_solver(
            load(engine, singleton_pointsto_program(), figure3_facts())
        )

    def test_downward_chain(self, engine):
        check_solver(load(engine, shortest_path_program(), SP_FACTS))

    def test_after_updates(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        solver.update(insertions={"edge": {(3, 4)}})
        solver.update(deletions={"edge": {(1, 2)}})
        check_solver(solver)


class TestDetectsCorruption:
    def test_exported_drift_detected(self):
        # Every engine funnels through the same exported-view checks; a
        # spurious tuple smuggled into the exported store must be caught.
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        solver._exported.get("tc").add((9, 9))
        with pytest.raises(InvariantViolationError, match="exported view"):
            check_solver(solver)

    def test_edb_drift_detected(self):
        solver = load(SemiNaiveSolver, tc_program(), tc_facts({(1, 2)}))
        solver._exported.get("edge").add((7, 7))
        with pytest.raises(InvariantViolationError, match="staged facts"):
            check_solver(solver)

    def test_laddder_unsettled_timeline_detected(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3)}))
        state = solver._states[-1]
        relation = state.rel("tc")
        row = next(iter(relation.present_tuples()))
        # A dangling negative delta: support goes negative at the tail.
        relation.timelines[row].add(99, -1)
        with pytest.raises(InvariantViolationError) as info:
            check_component(solver, len(solver._states) - 1)
        assert info.value.dump["engine"] == "LaddderSolver"
        assert "invariant" in info.value.dump

    def test_laddder_group_total_corruption_detected(self):
        solver = load(
            LaddderSolver, singleton_pointsto_program(), figure3_facts()
        )
        for index, state in enumerate(solver._states):
            if state.groups.get("ptlub"):
                group = next(iter(state.groups["ptlub"].values()))
                break
        # Poison a rolled-up total without touching the aggregand tree.
        ts = next(iter(group._totals))
        group._totals[ts] = "corrupt"
        with pytest.raises(InvariantViolationError, match="group"):
            check_component(solver, index)

    def test_dred_total_corruption_detected(self):
        solver = load(
            DRedLSolver, singleton_pointsto_program(), figure3_facts()
        )
        for index, state in enumerate(solver._states):
            if state.totals.get("ptlub"):
                totals = state.totals["ptlub"]
                break
        key = next(iter(totals))
        totals[key] = "corrupt"
        with pytest.raises(InvariantViolationError, match="total"):
            check_component(solver, index)

    def test_resolving_open_fixpoint_detected(self):
        solver = load(SemiNaiveSolver, tc_program(), tc_facts({(1, 2), (2, 3)}))
        # Remove a derived tuple from the raw store: the fixpoint is no
        # longer closed under the transitive-closure rule.
        index = next(
            i for i, c in enumerate(solver.components) if "tc" in c.predicates
        )
        solver._raw.get("tc").discard((1, 3))
        solver._exported.get("tc").discard((1, 3))
        with pytest.raises(InvariantViolationError, match="closed|pruned"):
            check_component(solver, index)

    def test_dump_is_diagnostic(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        solver._exported.get("tc").add((9, 9))
        with pytest.raises(InvariantViolationError) as info:
            check_solver(solver)
        dump = info.value.dump
        assert dump["engine"] == "LaddderSolver"
        assert dump["pred"] == "tc"
        assert (9, 9) in dump["extra"]


class TestEngineHook:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_check_mode_solves_clean(self, engine):
        solver = engine(
            singleton_pointsto_program(), config=SolverConfig(self_check=True)
        )
        for pred, rows in figure3_facts().items():
            solver.add_facts(pred, rows)
        solver.solve()
        assert solver.self_check
        solver.update(deletions={"alloc": {("c", "F2", "proc")}})
        assert solver.metrics.selfcheck_seconds > 0.0
