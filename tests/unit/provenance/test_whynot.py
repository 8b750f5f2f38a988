"""Unit tests for why-not frontiers (failed-derivation explanations)."""

import pytest

from repro.datalog import SolverError, parse
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.lattices import ConstantLattice
from repro.provenance import whynot

from ..engines.helpers import const_prop_program, load, tc_facts, tc_program

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]
CONST = ConstantLattice()


@pytest.mark.parametrize("engine", ENGINES)
class TestFrontier:
    def test_one_missing_premise(self, engine):
        # 4 is a constant the solver has never seen: still a frontier.
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        report = whynot(solver, "tc", (1, 4))
        assert report.reason == "frontier"
        best = report.frontier[0]
        # The recursive rule almost fired: tc(1, Y) holds for Y in {2, 3},
        # edge(Y, 4) is missing (the witness Y is iteration-order picked).
        assert best.satisfied == 1 and best.total == 2
        assert best.missing.pred == "edge"
        assert best.missing.pattern[0] in (2, 3)
        assert best.missing.pattern[1] == 4
        assert "edge" in report.format()

    def test_seeded_defect_fixture(self, engine):
        # A "defect": the link from 2 to 3 was never recorded, so tc(1, 3)
        # is absent.  The frontier names the exact missing input fact.
        solver = load(engine, tc_program(), tc_facts({(1, 2), (3, 4)}))
        report = whynot(solver, "tc", (1, 3))
        assert report.frontier, "the frontier must be non-empty"
        missing = {e.missing.pattern for e in report.frontier}
        assert (2, 3) in missing or (1, 3) in missing
        assert report.frontier[0].missing.detail == "input fact absent"


class TestValidationAndKinds:
    def test_derived_row_rejected(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        with pytest.raises(SolverError, match="use explain"):
            whynot(solver, "tc", (1, 2))

    def test_unknown_predicate_and_arity(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        with pytest.raises(SolverError, match="unknown predicate"):
            whynot(solver, "nope", (1,))
        with pytest.raises(SolverError, match="arity"):
            whynot(solver, "tc", (1, 2, 3))

    def test_edb_row_is_input_fact_absent(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        report = whynot(solver, "edge", (7, 8))
        assert report.reason == "input-fact-absent"
        assert "insert the fact" in report.format()

    def test_join_on_an_empty_input_relation(self):
        # ``ghost`` is an input relation no fact was ever staged into: the
        # frontier says so, instead of blaming one absent fact.
        p = parse("out(X) :- node(X), ghost(X).")
        solver = load(LaddderSolver, p, {"node": {(1,)}})
        report = whynot(solver, "out", (1,))
        assert report.reason == "frontier"
        entry = report.frontier[0]
        assert (entry.missing.pred, entry.missing.pattern) == ("ghost", (1,))
        assert entry.missing.detail == "input relation is empty"
        solver.update(insertions={"ghost": {(2,)}})
        detail = whynot(solver, "out", (1,)).frontier[0].missing.detail
        assert detail == "input fact absent"

    def test_rule_joining_a_forever_empty_relation_is_in_the_frontier(self):
        # ``never`` is derived only from itself: no tuple can ever exist.
        p = parse("""
            out(X) :- node(X), never(X).
            never(X) :- never(X), node(X).
        """)
        solver = load(LaddderSolver, p, {"node": {(1,)}})
        report = whynot(solver, "out", (1,))
        assert report.reason == "frontier"
        assert [(e.missing.pred, e.satisfied) for e in report.frontier] == [
            ("never", 1)
        ]

    def test_negation_blocking(self):
        p = parse("safe(X) :- node(X), !bad(X).")
        solver = load(
            LaddderSolver, p, {"node": {(1,), (2,)}, "bad": {(2,)}}
        )
        report = whynot(solver, "safe", (2,))
        entry = report.frontier[0]
        assert entry.missing.kind == "negation"
        assert entry.missing.pred == "bad"
        assert "blocked by a present tuple" in report.format()

    def test_aggregate_empty_group(self):
        # copy("z", "q") mentions "z" without deriving any value for it:
        # the group stays empty.
        solver = load(
            SemiNaiveSolver, const_prop_program(),
            {"lit": {("x", 1)}, "copy": {("z", "q")}},
        )
        report = whynot(solver, "val", ("z", None))
        assert report.reason == "frontier"
        entry = report.frontier[0]
        assert entry.missing.pred == "cval"
        assert "no aggregands" in entry.missing.detail

    def test_aggregate_value_mismatch(self):
        solver = load(
            SemiNaiveSolver, const_prop_program(), {"lit": {("x", 1)}}
        )
        report = whynot(solver, "val", ("x", CONST.top()))
        assert report.reason == "aggregate-mismatch"
        assert "Const(1)" in report.frontier[0].missing.detail

    def test_to_dict_shape(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2), (9, 9)}))
        payload = whynot(solver, "tc", (1, 9)).to_dict()
        assert payload["pred"] == "tc"
        assert payload["reason"] == "frontier"
        for entry in payload["frontier"]:
            assert set(entry) == {"rule", "satisfied", "total", "missing"}
            assert set(entry["missing"]) == {
                "kind", "pred", "pattern", "detail"
            }

    def test_metrics_counted(self):
        solver = LaddderSolver(tc_program())
        solver.add_facts("edge", {(1, 2)})
        solver.solve()
        whynot(solver, "tc", (1, 9))
        assert solver.metrics.provenance_whynots == 1

