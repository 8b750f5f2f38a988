"""Unit tests for the provenance annotation store."""

import pytest

from repro.config import SolverConfig
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.provenance import ProvenanceStore

from ..engines.helpers import load, tc_facts, tc_program

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]


class TestStoreBasics:
    def test_annotate_and_get(self):
        program = tc_program()
        store = ProvenanceStore(program)
        rule = program.rules[0]
        store.annotate("tc", (1, 2), rule)
        rid, height = store.get("tc", (1, 2))
        assert store.rule_for(rid) is rule
        assert height == 1
        assert len(store) == 1

    def test_clock_is_monotone(self):
        program = tc_program()
        store = ProvenanceStore(program)
        store.annotate("tc", (1, 2), program.rules[0])
        store.annotate("tc", (2, 3), program.rules[1])
        assert store.get("tc", (1, 2))[1] < store.get("tc", (2, 3))[1]

    def test_hint_consumed_by_annotate(self):
        program = tc_program()
        store = ProvenanceStore(program)
        store.hint("tc", (1, 2), program.rules[1])
        store.annotate("tc", (1, 2))
        rid, _ = store.get("tc", (1, 2))
        assert store.rule_for(rid) is program.rules[1]
        assert not store.hints

    def test_forget_and_clear(self):
        program = tc_program()
        store = ProvenanceStore(program)
        store.annotate("tc", (1, 2), program.rules[0])
        store.annotate("ab", (1,), program.rules[0])
        store.forget("tc", (1, 2))
        assert store.get("tc", (1, 2)) is None
        store.clear_all()
        assert len(store) == 0 and store.clock == 0

    def test_unknown_rule_id_is_none(self):
        store = ProvenanceStore(tc_program())
        assert store.rule_for(None) is None
        assert store.rule_for(999) is None

    def test_dump_restore_roundtrip(self):
        program = tc_program()
        store = ProvenanceStore(program)
        store.annotate("tc", (1, 2), program.rules[0])
        store.annotate("tc", (2, 3), program.rules[1])
        fresh = ProvenanceStore(program)
        fresh.restore(store.dump())
        assert fresh.annotations == store.annotations
        assert fresh.clock == store.clock


class TestJournalRollback:
    def test_mutations_reverse_through_journal(self):
        program = tc_program()
        store = ProvenanceStore(program)
        store.annotate("tc", (1, 2), program.rules[0])
        before = (dict(store.annotations), store.clock)

        journal = []
        store.journal = journal
        store.annotate("tc", (2, 3), program.rules[1])
        store.forget("tc", (1, 2))
        store.clear_all()
        store.journal = None
        for entry in reversed(journal):
            entry[0](*entry[1:])
        assert (dict(store.annotations), store.clock) == before


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineCapture:
    def test_all_derived_tuples_annotated(self, engine):
        solver = engine(tc_program(), config=SolverConfig.from_env(provenance=True))
        solver.add_facts("edge", {(1, 2), (2, 3), (3, 4)})
        solver.solve()
        prov = solver.provenance
        for row in solver.relation("tc"):
            key = row if solver.intern is None else solver.intern.lookup_row(row)
            assert prov.get("tc", key) is not None

    def test_annotations_track_updates(self, engine):
        solver = engine(tc_program(), config=SolverConfig.from_env(provenance=True))
        solver.add_facts("edge", {(1, 2)})
        solver.solve()
        solver.update(insertions={"edge": {(2, 3)}})
        prov = solver.provenance
        key = (
            (1, 3) if solver.intern is None
            else solver.intern.lookup_row((1, 3))
        )
        assert prov.get("tc", key) is not None
        solver.update(deletions={"edge": {(2, 3)}})
        stale = {
            row for (pred, row) in prov.annotations
            if pred == "tc" and row not in (
                solver._exported.get("tc").tuples
                if solver.intern is not None else solver.relation("tc")
            )
        }
        assert not stale

    def test_capture_off_by_default(self, engine):
        solver = load(engine, tc_program(), tc_facts({(1, 2)}))
        assert solver.provenance is None
