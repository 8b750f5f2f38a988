"""Unit tests for indexed relations and the grounding machinery."""

import os

import pytest

from repro.datalog import SolverError, parse
from repro.engines.grounding import (
    bind_pinned,
    instantiate,
    pattern_for,
    run_plan,
    unify_tuple,
)
from repro.engines.relation import IndexedRelation, RelationStore


class TestIndexedRelation:
    def test_add_and_contains(self):
        rel = IndexedRelation(2)
        assert rel.add((1, 2))
        assert not rel.add((1, 2))  # duplicate
        assert (1, 2) in rel
        assert len(rel) == 1

    def test_discard(self):
        rel = IndexedRelation(2)
        rel.add((1, 2))
        assert rel.discard((1, 2))
        assert not rel.discard((1, 2))
        assert len(rel) == 0

    def test_matching_unbound(self):
        rel = IndexedRelation(2)
        rel.add((1, 2))
        rel.add((3, 4))
        assert set(rel.matching((None, None))) == {(1, 2), (3, 4)}

    def test_matching_partial(self):
        rel = IndexedRelation(3)
        rel.add((1, "a", True))
        rel.add((1, "b", False))
        rel.add((2, "a", True))
        assert set(rel.matching((1, None, None))) == {(1, "a", True), (1, "b", False)}
        assert set(rel.matching((None, "a", None))) == {(1, "a", True), (2, "a", True)}
        assert set(rel.matching((1, "a", None))) == {(1, "a", True)}

    def test_matching_exact(self):
        rel = IndexedRelation(2)
        rel.add((1, 2))
        assert list(rel.matching((1, 2))) == [(1, 2)]
        assert list(rel.matching((1, 3))) == []

    def test_index_maintained_after_mutation(self):
        rel = IndexedRelation(2)
        rel.add((1, 2))
        assert set(rel.matching((1, None))) == {(1, 2)}  # builds the index
        rel.add((1, 3))
        rel.discard((1, 2))
        assert set(rel.matching((1, None))) == {(1, 3)}

    def test_clear(self):
        rel = IndexedRelation(1)
        rel.add((1,))
        list(rel.matching((1,)))
        rel.clear()
        assert len(rel) == 0
        assert list(rel.matching((None,))) == []

    def test_state_size_counts_postings(self):
        rel = IndexedRelation(2)
        rel.add((1, 2))
        base = rel.state_size()
        list(rel.matching((1, None)))  # build an index
        assert rel.state_size() > base


class TestLazyNumpy:
    def test_importing_the_service_does_not_import_numpy(self):
        """numpy costs every server process ~12 MB resident and nothing
        in the package uses it; no import may pull it in."""
        import subprocess
        import sys

        code = "import sys, repro.service; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "False", out.stderr


class TestRelationStore:
    def test_on_demand_creation(self):
        store = RelationStore({"r": 2})
        assert "r" not in store
        rel = store.get("r")
        assert rel.arity == 2
        assert "r" in store
        assert store.get("r") is rel

    def test_snapshot(self):
        store = RelationStore({"r": 1})
        store.get("r").add((1,))
        snap = store.snapshot()
        store.get("r").add((2,))
        assert snap == {"r": frozenset({(1,)})}


class TestGroundingHelpers:
    def setup_method(self):
        self.program = parse("h(X, Y) :- e(X, Y), f(Y, Z), X != Z.")
        self.rule = self.program.rules[0]

    def test_pattern_for(self):
        atom = self.rule.body[0].atom
        assert pattern_for(atom, {"X": 1}) == (1, None)
        assert pattern_for(atom, {}) == (None, None)

    def test_unify_tuple_binds_and_undoes(self):
        atom = self.rule.body[0].atom
        binding = {}
        added = unify_tuple(atom, (1, 2), binding)
        assert binding == {"X": 1, "Y": 2}
        assert set(added) == {"X", "Y"}

    def test_unify_conflict_restores(self):
        atom = parse("h(X) :- e(X, X).").rules[0].body[0].atom
        binding = {}
        assert unify_tuple(atom, (1, 2), binding) is None
        assert binding == {}

    def test_unify_constant_mismatch(self):
        atom = parse('h(X) :- e(X, "t").').rules[0].body[0].atom
        assert unify_tuple(atom, (1, "u"), {}) is None
        assert unify_tuple(atom, (1, "t"), {}) == ["X"]

    def test_bind_pinned(self):
        literal = self.rule.body[0]
        assert bind_pinned(literal, (1, 2)) == {"X": 1, "Y": 2}

    def test_instantiate(self):
        assert instantiate(self.rule.head, {"X": 1, "Y": 2}) == (1, 2)

    def test_instantiate_agg_head_rejected(self):
        agg_rule = parse("s(G, lub<L>) :- c(G, L).").rules[0]
        with pytest.raises(SolverError):
            instantiate(agg_rule.head, {"G": 1, "L": 2})

    def test_run_plan_enumerates_joins(self):
        from repro.datalog import plan_body

        store = RelationStore({"e": 2, "f": 2})
        store.get("e").add((1, 2))
        store.get("e").add((3, 4))
        store.get("f").add((2, 5))
        store.get("f").add((4, 3))
        plan = plan_body(self.rule)
        results = [
            instantiate(self.rule.head, b)
            for b in run_plan(plan, self.program, store.get, {})
        ]
        # (3,4) joins f(4,3) but X=3 == Z=3 fails the test.
        assert results == [(1, 2)]

    def test_run_plan_negation_requires_ground(self):
        program = parse("h(X) :- !e(X, Y), f(X).")
        rule = program.rules[0]
        store = RelationStore({"e": 2, "f": 1})
        # An inadmissible hand-built plan with the negation first:
        with pytest.raises(SolverError, match="not fully bound"):
            list(run_plan(list(rule.body), program, store.get, {}))

    def test_run_plan_neg_skip(self):
        program = parse("h(X) :- f(X), !e(X).")
        rule = program.rules[0]
        from repro.datalog import plan_body

        store = RelationStore({"e": 1, "f": 1})
        store.get("f").add((1,))
        store.get("e").add((1,))
        plan = plan_body(rule)
        assert list(run_plan(plan, program, store.get, {})) == []
        waived = list(
            run_plan(plan, program, store.get, {}, neg_skip=("e", (1,)))
        )
        assert len(waived) == 1

    def test_eval_conflict_filters(self):
        program = parse("h(X, Y) :- e(X, Y), Y := add(X, 1).")
        rule = program.rules[0]
        from repro.datalog import plan_body

        store = RelationStore({"e": 2})
        store.get("e").add((1, 2))  # matches Y = X+1
        store.get("e").add((1, 5))  # conflicts
        plan = plan_body(rule)
        results = [
            instantiate(rule.head, b)
            for b in run_plan(plan, program, store.get, {})
        ]
        assert results == [(1, 2)]
