"""Unit tests for provenance-guided rollback suggestions."""

import pytest

from repro.datalog import SolverError
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.provenance import suggest_rollbacks

from ..engines.helpers import load, tc_facts, tc_program

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]


@pytest.mark.parametrize("engine", ENGINES)
class TestSuggestions:
    def test_single_edit_chain(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        before = solver.relations()
        suggestions = suggest_rollbacks(solver, "tc", (1, 3))
        assert suggestions, "a chain derivation has single-fact cuts"
        assert all(len(s.edits) == 1 for s in suggestions)
        assert {s.edits[0] for s in suggestions} == {
            ("edge", (1, 2)), ("edge", (2, 3)),
        }
        assert all(s.verified for s in suggestions)
        # The probing applied and undid real updates: state is bit-equal.
        assert solver.relations() == before

    def test_multi_edit_when_redundant_paths(self, engine):
        # Two disjoint paths 1->3: removing either alone cannot kill
        # tc(1, 3), so the minimal verified edit set has two facts.
        solver = load(
            engine, tc_program(),
            tc_facts({(1, 2), (2, 3), (1, 4), (4, 3)}),
        )
        before = solver.relations()
        suggestions = suggest_rollbacks(solver, "tc", (1, 3))
        assert suggestions
        assert all(len(s.edits) >= 2 for s in suggestions)
        assert solver.relations() == before

    def test_suggestion_applies_as_real_update(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        suggestion = suggest_rollbacks(solver, "tc", (1, 3))[0]
        solver.update(deletions=suggestion.deletions())
        assert (1, 3) not in solver.relation("tc")

    def test_underivable_target_rejected(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2)}))
        with pytest.raises(SolverError, match="not derived"):
            suggest_rollbacks(solver, "tc", (5, 6))


class TestTaintAlarm:
    """The acceptance scenario: roll a taint-analysis alarm back."""

    @pytest.fixture
    def instance(self):
        from repro.analyses.taint import taint_analysis

        from ..analyses.test_taint import build_flow_program

        return taint_analysis(
            build_flow_program(),
            sources={"Source.get"},
            sinks={"Sink.put"},
        )

    def test_alarm_removal_matches_from_scratch(self, instance):
        solver = instance.make_solver(LaddderSolver)
        alarm = next(
            row for row in solver.relation("sink_alert")
            if row[1] == "Main.main/x"
        )
        suggestions = suggest_rollbacks(solver, "sink_alert", alarm)
        assert suggestions, "the alarm must have deletable input support"
        suggestion = suggestions[0]

        # Apply the suggested edit as an incremental update: alarm gone.
        deletions = suggestion.deletions()
        solver.update(deletions=deletions)
        assert alarm not in solver.relation("sink_alert")

        # ... and bit-equal to a from-scratch solve on the edited facts.
        edited = {pred: set(rows) for pred, rows in instance.facts.items()}
        for pred, rows in deletions.items():
            edited[pred] = edited[pred] - set(rows)
        reference = SemiNaiveSolver(instance.program)
        for pred, rows in edited.items():
            if rows and pred in reference.idb:
                continue
            reference.add_facts(pred, rows)
        reference.solve()
        assert solver.relations() == reference.relations()


class TestRanking:
    def test_ranked_by_edit_count(self):
        solver = load(
            LaddderSolver, tc_program(),
            tc_facts({(1, 2), (2, 3), (3, 4)}),
        )
        suggestions = suggest_rollbacks(
            solver, "tc", (1, 4), max_suggestions=3
        )
        sizes = [len(s.edits) for s in suggestions]
        assert sizes == sorted(sizes)

    def test_respects_max_edits(self):
        # Four disjoint 2-hop paths: cutting tc(1, 9) needs 4 edits, above
        # the cap of 1 — no suggestion may be returned unverified.
        edges = set()
        for mid in (2, 3, 4, 5):
            edges |= {(1, mid), (mid, 9)}
        solver = load(LaddderSolver, tc_program(), tc_facts(edges))
        before = solver.relations()
        suggestions = suggest_rollbacks(solver, "tc", (1, 9), max_edits=1)
        assert suggestions == []
        assert solver.relations() == before

    def test_to_dict_and_format(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        suggestion = suggest_rollbacks(solver, "tc", (1, 2))[0]
        payload = suggestion.to_dict()
        assert payload["verified"] is True
        assert payload["edits"][0]["pred"] == "edge"
        assert "delete edge(1, 2)" in suggestion.format()
