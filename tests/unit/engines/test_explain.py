"""Unit tests for derivation explanations (provenance)."""

import pytest

from repro.config import SolverConfig
from repro.datalog import SolverError, parse
from repro.engines import LaddderSolver, NaiveSolver, explain
from repro.lattices import C, ConstantLattice

from .helpers import (
    const_prop_program,
    figure3_facts,
    load,
    singleton_pointsto_program,
    tc_facts,
    tc_program,
)

CONST = ConstantLattice()
#: Capture on, everything else as the suite's environment has it.
PROVENANCE = SolverConfig.from_env(provenance=True)


def leaf_kinds(node):
    if not node.premises:
        return {node.kind}
    out = set()
    for p in node.premises:
        out |= leaf_kinds(p)
    return out


class TestPlainExplanations:
    def test_fact_leaf(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        d = explain(solver, "edge", (1, 2))
        assert d.kind == "fact"
        assert d.size() == 1

    def test_single_hop(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        d = explain(solver, "tc", (1, 2))
        assert d.kind == "rule"
        assert d.rule.head.pred == "tc"
        assert [p.pred for p in d.premises] == ["edge"]

    def test_transitive_grounds_to_facts(self):
        solver = load(
            LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3), (3, 4)})
        )
        d = explain(solver, "tc", (1, 4))
        assert leaf_kinds(d) == {"fact"}
        text = d.format()
        assert "edge(1, 2)" in text and "edge(3, 4)" in text
        assert "[input fact]" in text

    def test_prefers_acyclic_derivation(self):
        # tc(1,1) via the cycle; tc(1,2) has a direct fact derivation that
        # must be chosen over the recursive rule.
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 1)}))
        d = explain(solver, "tc", (1, 2))
        assert leaf_kinds(d) == {"fact"}

    def test_cycle_marked_when_unavoidable(self):
        p = parse("ouro(X) :- seed(X). ouro(X) :- ouro(X), tick(X).")
        solver = load(
            LaddderSolver, p, {"seed": {(1,)}, "tick": {(1,)}}
        )
        d = explain(solver, "ouro", (1,))
        # the acyclic seed derivation must win
        assert leaf_kinds(d) == {"fact"}

    def test_missing_tuple_rejected(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        with pytest.raises(SolverError, match="not derived"):
            explain(solver, "tc", (9, 9))

    def test_negated_premise_shown(self):
        p = parse(
            """
            linked(X) :- edge(X, _).
            isolated(X) :- node(X), !linked(X).
            """
        )
        solver = load(LaddderSolver, p, {"node": {(1,)}, "edge": set()})
        d = explain(solver, "isolated", (1,))
        preds = [x.pred for x in d.premises]
        assert "node" in preds and "!linked" in preds
        negated = next(x for x in d.premises if x.pred == "!linked")
        assert negated.kind == "negation"
        assert "[absent, as required]" in d.format()


class TestLatticeExplanations:
    def test_aggregate_node(self):
        facts = {"lit": {("x", 1), ("y", 2)}, "copy": {("z", "x"), ("z", "y")}}
        solver = load(LaddderSolver, const_prop_program(), facts)
        d = explain(solver, "val", ("z", CONST.top()))
        assert d.kind == "aggregate"
        assert len(d.premises) == 2  # Const(1) and Const(2) aggregands
        assert leaf_kinds(d) == {"fact"}

    def test_pointsto_explanation_grounds(self):
        solver = load(
            LaddderSolver, singleton_pointsto_program(), figure3_facts()
        )
        d = explain(solver, "ptlub", ("f", C("Factory")))
        assert d.kind == "aggregate"
        text = d.format()
        assert "alloc" in text
        assert "[input fact]" in text

    def test_reach_explanation_grounds(self):
        solver = load(
            LaddderSolver, singleton_pointsto_program(), figure3_facts()
        )
        d = explain(solver, "reach", ("proc",))
        assert leaf_kinds(d) <= {"fact", "depth"}
        assert "funcname" in d.format()

    def test_works_on_any_engine(self):
        solver = load(
            NaiveSolver, singleton_pointsto_program(), figure3_facts()
        )
        d = explain(solver, "reach", ("proc",))
        assert d.kind == "rule"

    def test_depth_limit(self):
        solver = load(
            LaddderSolver, tc_program(), tc_facts({(i, i + 1) for i in range(20)})
        )
        d = explain(solver, "tc", (0, 20), max_depth=3)
        assert "depth" in leaf_kinds(d)

    def test_explanation_after_update(self):
        solver = load(
            LaddderSolver, singleton_pointsto_program(), figure3_facts()
        )
        solver.update(deletions={"alloc": {("c", "F2", "proc")}})
        from repro.lattices import O

        d = explain(solver, "ptlub", ("f", O("F1")))
        assert d.kind == "aggregate"
        assert leaf_kinds(d) <= {"fact", "depth"}


class TestHeightGuidedProvenance:
    def test_annotated_solver_takes_fast_path(self):
        solver = LaddderSolver(tc_program(), config=PROVENANCE)
        solver.add_facts("edge", {(i, i + 1) for i in range(10)})
        solver.solve()
        d = explain(solver, "tc", (0, 10))
        assert leaf_kinds(d) == {"fact"}
        assert solver.metrics.provenance_hits > 0

    def test_tree_identical_with_and_without_annotations(self):
        facts = tc_facts({(1, 2), (2, 3), (3, 4)})
        plain = load(LaddderSolver, tc_program(), facts)
        annotated = LaddderSolver(tc_program(), config=PROVENANCE)
        annotated.add_facts("edge", facts["edge"])
        annotated.solve()
        for row in plain.relation("tc"):
            a = explain(plain, "tc", row)
            b = explain(annotated, "tc", row)
            # Both are fact-rooted, verifiable trees of the same tuple;
            # shapes may differ, roots and leaf kinds may not.
            assert (a.pred, a.row) == (b.pred, b.row)
            assert leaf_kinds(a) == leaf_kinds(b) == {"fact"}

    def test_fast_path_after_incremental_update(self):
        solver = LaddderSolver(tc_program(), config=PROVENANCE)
        solver.add_facts("edge", {(1, 2)})
        solver.solve()
        solver.update(insertions={"edge": {(2, 3), (3, 4)}})
        d = explain(solver, "tc", (1, 4))
        assert leaf_kinds(d) == {"fact"}


class TestSchemaAndMetrics:
    def test_to_dict_schema(self):
        solver = load(
            LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3)})
        )
        payload = explain(solver, "tc", (1, 3)).to_dict()
        assert payload["pred"] == "tc"
        assert payload["row"] == ["1", "3"]
        assert payload["kind"] == "rule"
        assert "rule" in payload
        assert all("kind" in p for p in payload["premises"])

    def test_to_dict_max_nodes_bound(self):
        solver = load(
            LaddderSolver, tc_program(),
            tc_facts({(i, i + 1) for i in range(12)}),
        )
        payload = explain(solver, "tc", (0, 12)).to_dict(max_nodes=4)

        def count(node):
            return 1 + sum(count(p) for p in node["premises"])

        assert count(payload) <= 4

        def omitted(node):
            return node.get("premises_omitted", 0) + sum(
                omitted(p) for p in node["premises"]
            )

        assert omitted(payload) > 0

    def test_explain_metrics_counted(self):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        explain(solver, "tc", (1, 2))
        assert solver.metrics.provenance_explains == 1
        assert solver.metrics.provenance_seconds >= 0.0
