"""Support positions and cyclic retraction: why timelines are never folded.

The continuous-edit soak surfaced that folding support histories of
*recursive* predicates is unsound (the "zombie" in docs/SOAK.md): the
per-support firing positions are what unwinds cyclic derivations on
retraction.  These tests pin that boundary — and the structural reason a
fold had nothing to do elsewhere: components are SCCs, so a predicate of
a non-recursive component has body atoms that are all upstream and
timeless (timestamp 0), its supports all fire at timestamp 1 and merge,
and its timelines are *born* single-entry.
"""

from repro.datalog import parse
from repro.engines import LaddderSolver, SemiNaiveSolver

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


class TestAcyclicPredicates:
    def test_timelines_are_born_single_entry(self):
        solver = load(LaddderSolver, diamond_program(), DIAMOND_FACTS)
        # Both derivations of out(a, c) fire at timestamp 1 and merge:
        # cross-component inputs are timeless, so non-recursive predicates
        # never accumulate multi-entry histories in the first place.
        assert list(solver.timeline("out", ("a", "c")).entries()) == [(1, 2)]
        # A new path a->m->c re-derives hop2(a, c), but upstream exports
        # are set-semantics: no new tuple enters out's component and the
        # support count is unchanged.
        solver.update(insertions={"edge": {("a", "m"), ("m", "c")}})
        assert list(solver.timeline("out", ("a", "c")).entries()) == [(1, 2)]
        acyclic = [s for s in solver._states if not s.component.recursive]
        assert {"hop", "hop2", "out"} <= set().union(
            *(s.component.predicates for s in acyclic)
        )
        for state in acyclic:
            for relation in state.relations.values():
                for timeline in relation.timelines.values():
                    assert len(timeline) == 1
        facts = {"edge": DIAMOND_FACTS["edge"] | {("a", "m"), ("m", "c")}}
        assert solver.relations() == oracle_relations(diamond_program(), facts)

    def test_merged_supports_retract_bit_equal(self):
        solver = load(LaddderSolver, diamond_program(), DIAMOND_FACTS)
        solver.update(insertions={"edge": {("a", "m"), ("m", "c")}})
        edges = set(DIAMOND_FACTS["edge"]) | {("a", "m"), ("m", "c")}
        # Retract the supports one at a time; the merged timeline must
        # telescope through each correction and out(a, c) must disappear
        # exactly when the last path does.
        for edge in [("a", "c"), ("a", "b"), ("a", "m")]:
            edges.discard(edge)
            solver.update(deletions={"edge": {edge}})
            assert solver.relations() == oracle_relations(
                diamond_program(), {"edge": edges}
            )
        assert ("a", "c") not in solver.relation("out")


class TestRecursiveBoundary:
    def test_cyclic_cascade_collapses_after_touching_epoch(self):
        """The distilled zombie: an epoch that touches cyclically-supported
        tuples (and would fold them, were their positions folded) followed
        by a deletion whose retraction cascade relies on the support
        positions.
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
