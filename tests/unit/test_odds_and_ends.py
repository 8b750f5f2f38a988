"""Coverage for corners not exercised elsewhere: raw vs pruned views,
histogram edge cases, dual lattices in anger, stats reporting."""

import pytest

from repro.datalog import parse
from repro.engines import LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.lattices import ChainLattice, ConstantLattice, lub
from repro.methodology import ImpactRecord, bucket_impacts, format_histogram

CONST = ConstantLattice()


class TestRawVsPruned:
    def _program(self):
        p = parse(
            """
            cand(G, V) :- seed(G, V).
            cand(G, W) :- total(G, V), step(V, W).
            total(G, mx<V>) :- cand(G, V).
            .export total.
            """
        )
        p.register_aggregator("mx", lub(ChainLattice(list(range(8)))))
        return p

    def _facts(self):
        return {"seed": {("g", 1)}, "step": {(1, 3), (3, 5)}}

    @pytest.mark.parametrize("engine", [NaiveSolver, SemiNaiveSolver])
    def test_raw_keeps_intermediates(self, engine):
        solver = engine(self._program())
        for pred, rows in self._facts().items():
            solver.add_facts(pred, rows)
        solver.solve()
        # Pruned view: one final total.
        assert solver.relation("total") == {("g", 5)}
        # Raw view: the inflationary history 1 ⊑ 3 ⊑ 5.
        raw_values = {v for _g, v in solver.raw_relation("total")}
        assert raw_values == {1, 3, 5}

    def test_raw_relation_of_edb(self):
        solver = NaiveSolver(self._program())
        for pred, rows in self._facts().items():
            solver.add_facts(pred, rows)
        solver.solve()
        assert solver.raw_relation("seed") == {("g", 1)}


class TestHistogramEdges:
    def test_empty_records(self):
        assert bucket_impacts([]) == {"10e1": 0}
        assert format_histogram({"10e1": 0})

    def test_gap_buckets_rendered(self):
        records = [ImpactRecord("a", 1, 1, 0), ImpactRecord("b", 500, 500, 0)]
        histogram = bucket_impacts(records)
        assert histogram["10e1"] == 1
        assert histogram["10e2"] == 0  # gap still present
        assert histogram["10e4"] == 1

    def test_format_is_monotone_in_counts(self):
        text = format_histogram({"10e1": 10, "10e2": 5})
        bar1 = text.splitlines()[0].count("#")
        bar2 = text.splitlines()[1].count("#")
        assert bar1 > bar2


class TestDualLatticeInSolver:
    def test_must_analysis_via_dual(self):
        """A 'must be this constant on all paths' analysis: run the
        constant lattice upside down through the same machinery."""
        dual = CONST.dual()
        p = parse(
            """
            obs(V, C) :- sample(V, N), C := const(N).
            must(V, agree<C>) :- obs(V, C).
            .export must.
            """
        )
        p.register_function("const", CONST.const)
        p.register_aggregator("agree", lub(dual))
        solver = LaddderSolver(p)
        solver.add_facts("sample", [("x", 1), ("x", 1), ("y", 1), ("y", 2)])
        solver.solve()
        must = dict(solver.relation("must"))
        assert must["x"] == CONST.const(1)       # all samples agree
        assert must["y"] == CONST.bottom()       # dual join = meet -> Bot
        solver.update(deletions={"sample": {("y", 2)}})
        # only the N=1 sample remains: agreement recovers
        assert dict(solver.relation("must"))["y"] == CONST.const(1)


class TestUpdateStatsReporting:
    def test_work_counts_deltas(self):
        p = parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).")
        solver = LaddderSolver(p)
        solver.add_facts("e", [(i, i + 1) for i in range(5)])
        solver.solve()
        small = solver.update(deletions={"e": {(4, 5)}}).work
        solver.update(insertions={"e": {(4, 5)}})
        big = solver.update(deletions={"e": {(0, 1)}}).work
        assert big >= small  # head-of-chain deletion touches more
