"""Settled-timeline compaction: where it fires, and where it must not.

The continuous-edit soak surfaced that folding support histories of
*recursive* predicates is unsound (the "zombie" in docs/SOAK.md): the
per-support firing positions are what unwinds cyclic derivations on
retraction.  These tests pin both sides of the boundary — and the
structural consequence: components are SCCs, so every predicate sharing
a component with another is on a cycle (never foldable), while a
foldable predicate's body atoms are all upstream and timeless
(timestamp 0), so all of its supports fire at timestamp 1 and merge.
Foldable timelines are *born* single-entry; the solver's epoch-end
compaction pass is a sound backstop exercised directly on the
:class:`TimedRelation` machinery below.
"""

import pytest

from repro.datalog import parse
from repro.engines import LaddderSolver, SemiNaiveSolver
from repro.engines.laddder.state import TimedRelation
from repro.robustness.guard import TRANSACTION

from tests.unit.engines.helpers import load, tc_program


def diamond_program():
    """Acyclic rules where one tuple has two derivations: ``out(a, c)``
    via the direct edge and via the two-hop path.  Each predicate is its
    own (singleton) component, so both supports enter ``out``'s component
    from upstream at timestamp 0 and fire together at timestamp 1."""
    return parse(
        """
        hop(X, Y) :- edge(X, Y).
        hop2(X, Z) :- hop(X, Y), hop(Y, Z).
        out(X, Z) :- edge(X, Z).
        out(X, Z) :- hop2(X, Z).
        .export out.
        """
    )


DIAMOND_FACTS = {"edge": {("a", "b"), ("b", "c"), ("a", "c")}}


def oracle_relations(program, facts):
    return load(SemiNaiveSolver, program, facts).relations()


class TestFoldableClassification:
    def test_acyclic_predicates_are_foldable(self):
        solver = load(LaddderSolver, diamond_program(), DIAMOND_FACTS)
        foldable = set().union(*(s.foldable for s in solver._states))
        assert {"hop", "hop2", "out"} <= foldable

    def test_recursive_predicate_is_not_foldable(self):
        solver = load(LaddderSolver, tc_program(), {"edge": {("a", "b")}})
        for state in solver._states:
            assert "tc" not in state.foldable


class TestAcyclicCompaction:
    def test_foldable_timelines_are_born_single_entry(self):
        solver = load(LaddderSolver, diamond_program(), DIAMOND_FACTS)
        # Both derivations of out(a, c) fire at timestamp 1 and merge:
        # cross-component inputs are timeless, so foldable predicates
        # never accumulate multi-entry histories in the first place.
        assert list(solver.timeline("out", ("a", "c")).entries()) == [(1, 2)]
        # A new path a->m->c re-derives hop2(a, c), but upstream exports
        # are set-semantics: no new tuple enters out's component and the
        # support count is unchanged.
        solver.update(insertions={"edge": {("a", "m"), ("m", "c")}})
        assert list(solver.timeline("out", ("a", "c")).entries()) == [(1, 2)]
        for state in solver._states:
            for relation in state.relations.values():
                for timeline in relation.timelines.values():
                    assert len(timeline) == 1
        # Nothing multi-entry ever reached the epoch-end pass.
        assert solver.metrics.timelines_compacted == 0
        facts = {"edge": DIAMOND_FACTS["edge"] | {("a", "m"), ("m", "c")}}
        assert solver.relations() == oracle_relations(diamond_program(), facts)

    def test_folded_supports_retract_bit_equal(self):
        solver = load(LaddderSolver, diamond_program(), DIAMOND_FACTS)
        solver.update(insertions={"edge": {("a", "m"), ("m", "c")}})
        edges = set(DIAMOND_FACTS["edge"]) | {("a", "m"), ("m", "c")}
        # Retract the supports one at a time; the folded timeline must
        # telescope through each correction and out(a, c) must disappear
        # exactly when the last path does.
        for edge in [("a", "c"), ("a", "b"), ("a", "m")]:
            edges.discard(edge)
            solver.update(deletions={"edge": {edge}})
            assert solver.relations() == oracle_relations(
                diamond_program(), {"edge": edges}
            )
        assert ("a", "c") not in solver.relation("out")

    def test_opt_out_is_bit_equal(self, monkeypatch):
        monkeypatch.setattr(LaddderSolver, "COMPACT", False)
        solver = load(LaddderSolver, diamond_program(), DIAMOND_FACTS)
        solver.update(insertions={"edge": {("a", "m"), ("m", "c")}})
        assert list(solver.timeline("out", ("a", "c")).entries()) == [(1, 2)]
        assert solver.metrics.timelines_compacted == 0
        facts = {"edge": DIAMOND_FACTS["edge"] | {("a", "m"), ("m", "c")}}
        assert solver.relations() == oracle_relations(diamond_program(), facts)


class TestRecursiveBoundary:
    def test_cyclic_cascade_collapses_after_touching_epoch(self):
        """The distilled zombie: an epoch that touches cyclically-supported
        tuples (and would fold them, were tc foldable) followed by a
        deletion whose retraction cascade relies on the support positions.
        """
        solver = load(LaddderSolver, tc_program(), {"edge": {("a", "b")}})
        solver.update(insertions={"edge": {("b", "a")}})
        assert solver.relations() == oracle_relations(
            tc_program(), {"edge": {("a", "b"), ("b", "a")}}
        )
        solver.update(deletions={"edge": {("a", "b")}})
        # Every cyclic echo must collapse; only the surviving edge remains.
        assert solver.relations() == oracle_relations(
            tc_program(), {"edge": {("b", "a")}}
        )
        assert solver.relation("tc") == {("b", "a")}

    def test_recursive_timelines_keep_positions(self):
        solver = load(
            LaddderSolver, tc_program(), {"edge": {("a", "b"), ("b", "c")}}
        )
        solver.update(insertions={"edge": {("c", "a")}})
        entries = list(solver.timeline("tc", ("a", "a")).entries())
        # Cyclic supports stay at their firing positions, never folded.
        assert len(entries) >= 1
        assert all(d > 0 for _, d in entries)
        assert solver.metrics.timelines_compacted == 0


class TestJournal:
    def test_compaction_and_redirect_roll_back_bit_equal(self):
        relation = TimedRelation(2)
        row = ("a", "b")
        relation.add_delta(row, 1, 1)
        relation.add_delta(row, 3, 1)
        journal: list = []
        TRANSACTION.undo = journal
        try:
            relation.add_delta(row, 5, 1)
            relation.compact(row)
            assert list(relation.timelines[row].entries()) == [(1, 3)]
            relation.add_delta(row, 4, -1, redirect=True)
            assert list(relation.timelines[row].entries()) == [(1, 2)]
        finally:
            TRANSACTION.undo = None
        for fn, *args in reversed(journal):
            fn(*args)
        assert list(relation.timelines[row].entries()) == [(1, 1), (3, 1)]
