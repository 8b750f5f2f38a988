"""Unit tests for source-level editing scenarios (the paper's future work)."""

import copy

import pytest

from repro.analyses import constant_propagation, kupdate_pointsto
from repro.changes import SourceEditor, pointsto_facts, value_facts
from repro.corpus import SUBJECT_ORDER
from repro.engines import LaddderSolver, SemiNaiveSolver
from repro.lattices import Const

from tests.unit.javalite.fixtures import numeric_program


def fresh_solver(build, program):
    instance = build(program)
    return instance, instance.make_solver(LaddderSolver)


class TestValueEdits:
    def test_replace_literal_change_shape(self):
        program = numeric_program()
        editor = SourceEditor(program, extractor=value_facts)
        lit_label = next(
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "ConstAssign" and s.value == 1
        )
        change = editor.replace_literal(lit_label, 0)
        # One source edit = one correlated fact epoch: the old assignlit
        # leaves, the new one arrives, and nothing else moves.
        assert change.deletions.keys() == {"assignlit"}
        assert change.insertions.keys() == {"assignlit"}

    def test_edits_drive_incremental_solver(self):
        program = numeric_program()
        instance, solver = fresh_solver(constant_propagation, program)
        editor = SourceEditor(program, extractor=value_facts)
        lit_label = next(
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "ConstAssign" and s.value == 1
            and s.var.endswith("/a")
        )
        change = editor.replace_literal(lit_label, 5)
        solver.update(insertions=change.insertions, deletions=change.deletions)
        val = {
            (n.rsplit("/", 1)[-1], v.rsplit("/", 1)[-1]): c
            for n, v, c in solver.relation("val")
        }
        assert val[("exit", "a")] == Const(5)
        assert val[("exit", "c")] == Const(10)

        # The incremental state equals from-scratch on the edited program.
        oracle = constant_propagation(program).make_solver(SemiNaiveSolver)
        assert solver.relations() == oracle.relations()

    def test_delete_statement_rewires_cfg(self):
        program = numeric_program()
        instance, solver = fresh_solver(constant_propagation, program)
        editor = SourceEditor(program, extractor=value_facts)
        move_label = next(
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "Move"
        )
        change = editor.delete_statement(move_label)
        # Flow edges rewire around the deleted node.
        assert "flow" in change.deletions and "flow" in change.insertions
        assert "assignmove" in change.deletions
        solver.update(insertions=change.insertions, deletions=change.deletions)
        oracle = constant_propagation(program).make_solver(SemiNaiveSolver)
        assert solver.relations() == oracle.relations()

    def test_labels_stay_stable_across_deletion(self):
        program = numeric_program()
        editor = SourceEditor(program, extractor=value_facts)
        labels_before = [
            s.label for m in program.methods() for s in m.statements()
        ]
        editor.delete_statement(labels_before[1])
        labels_after = [
            s.label for m in program.methods() for s in m.statements()
        ]
        assert set(labels_after) == set(labels_before) - {labels_before[1]}

    def test_unknown_label_rejected(self):
        editor = SourceEditor(numeric_program(), extractor=value_facts)
        with pytest.raises(KeyError):
            editor.delete_statement("Main.main/999")
        with pytest.raises(KeyError):
            editor.replace_literal("Main.main/999", 0)

    def test_non_literal_rejected(self):
        program = numeric_program()
        editor = SourceEditor(program, extractor=value_facts)
        move_label = next(
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "Move"
        )
        with pytest.raises(ValueError):
            editor.replace_literal(move_label, 0)


class TestPointsToEdits:
    def test_insert_allocation(self):
        from repro.corpus import load_subject

        program = copy.deepcopy(load_subject("minijavac"))
        instance, solver = fresh_solver(kupdate_pointsto, program)
        editor = SourceEditor(program, extractor=pointsto_facts)
        cls = next(
            name for name, c in program.classes.items()
            if not c.is_abstract and name != "Object" and c.superclass == "Object"
        )
        change = editor.insert_allocation("Main.main", "fresh", cls)
        assert "alloc" in change.insertions
        solver.update(insertions=change.insertions, deletions=change.deletions)
        oracle = kupdate_pointsto(program).make_solver(SemiNaiveSolver)
        assert solver.relations() == oracle.relations()

    def test_edit_sequence_tracks_oracle(self):
        from repro.corpus import load_subject

        program = copy.deepcopy(load_subject("minijavac"))
        instance, solver = fresh_solver(kupdate_pointsto, program)
        editor = SourceEditor(program, extractor=pointsto_facts)
        alloc_labels = [
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "New"
        ]
        for label in alloc_labels[:3]:
            change = editor.delete_statement(label)
            solver.update(
                insertions=change.insertions, deletions=change.deletions
            )
        oracle = kupdate_pointsto(program).make_solver(SemiNaiveSolver)
        assert solver.relations() == oracle.relations()


class TestIncrementalExtractor:
    def test_slices_assemble_to_full_extraction(self):
        from repro.corpus import load_subject
        from repro.javalite.facts import extract_pointsto_facts, extract_value_facts
        from repro.javalite.incremental import IncrementalExtractor

        for subject in SUBJECT_ORDER:
            program = load_subject(subject)
            for kind, extract in (
                ("value", extract_value_facts),
                ("pointsto", extract_pointsto_facts),
            ):
                incremental = IncrementalExtractor(program, kind=kind)
                full, _ = extract(program)
                assembled = incremental.facts()
                assert {p: set(r) for p, r in full.items() if r} == {
                    p: set(r) for p, r in assembled.items() if r
                }, (subject, kind)

    def test_refresh_unedited_method_is_noop(self):
        from repro.javalite.incremental import IncrementalExtractor

        extractor = IncrementalExtractor(numeric_program(), kind="value")
        for method in extractor.methods():
            inserted, deleted = extractor.refresh(method)
            assert not inserted and not deleted

    def test_unknown_kind_rejected(self):
        from repro.datalog import SolverError
        from repro.javalite.incremental import IncrementalExtractor

        with pytest.raises(SolverError):
            IncrementalExtractor(numeric_program(), kind="bytecode")


class TestIncrementalSourceEditor:
    def test_matches_naive_editor_changes(self):
        from repro.changes import IncrementalSourceEditor, SourceEditor

        naive_program = numeric_program()
        incr_program = numeric_program()
        naive = SourceEditor(naive_program, extractor=value_facts)
        incr = IncrementalSourceEditor(incr_program, kind="value")
        label = next(
            s.label for m in naive_program.methods() for s in m.statements()
            if type(s).__name__ == "ConstAssign" and s.value == 1
        )
        a = naive.replace_literal(label, 9)
        b = incr.replace_literal(label, 9)
        assert a.insertions == b.insertions
        assert a.deletions == b.deletions

    @pytest.mark.parametrize(
        "kind, extractor", [("value", value_facts), ("pointsto", pointsto_facts)]
    )
    def test_stream_matches_naive_editor_step_by_step(self, kind, extractor):
        """Deletes, restores, renames and literal retypes: the incremental
        front end emits the Change the whole-program extractor's diff does,
        at every step."""
        from repro.changes import EditStream, IncrementalSourceEditor
        from repro.corpus import load_subject

        naive = EditStream(
            SourceEditor(copy.deepcopy(load_subject("minijavac")), extractor),
            seed=7,
        )
        incr = EditStream(
            IncrementalSourceEditor(
                copy.deepcopy(load_subject("minijavac")), kind=kind
            ),
            seed=7,
        )
        kinds = set()
        for index in range(60):
            a, b = naive.step(), incr.step()
            assert (a.kind, a.change.label) == (b.kind, b.change.label)
            assert a.change.insertions == b.change.insertions, index
            assert a.change.deletions == b.change.deletions, index
            kinds.add(a.kind)
        assert kinds == {"literal", "delete", "restore", "rename"}

    def test_edit_sequence_tracks_oracle(self):
        from repro.changes import IncrementalSourceEditor

        program = numeric_program()
        instance, solver = fresh_solver(constant_propagation, program)
        editor = IncrementalSourceEditor(program, kind="value")
        labels = [
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ in ("ConstAssign", "Move")
        ]
        for label in labels[:3]:
            change = editor.delete_statement(label)
            solver.update(
                insertions=change.insertions, deletions=change.deletions
            )
        oracle = constant_propagation(program).make_solver(SemiNaiveSolver)
        assert solver.relations() == oracle.relations()

    def test_pointsto_kind(self):
        from repro.changes import IncrementalSourceEditor
        from repro.corpus import load_subject

        program = copy.deepcopy(load_subject("minijavac"))
        instance, solver = fresh_solver(kupdate_pointsto, program)
        editor = IncrementalSourceEditor(program, kind="pointsto")
        alloc_label = next(
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "New"
        )
        change = editor.delete_statement(alloc_label)
        solver.update(insertions=change.insertions, deletions=change.deletions)
        oracle = kupdate_pointsto(program).make_solver(SemiNaiveSolver)
        assert solver.relations() == oracle.relations()


class TestRestoreStatement:
    def test_restore_round_trips_facts_and_position(self):
        program = numeric_program()
        editor = SourceEditor(program, extractor=value_facts)
        before = editor.checkpoint()
        method = next(iter(program.methods()))
        order_before = [s.label for s in method.body]
        label = order_before[1]
        deleted = editor.delete_statement(label)
        restored = editor.restore_statement(label)
        # The fact diff of the restore is exactly the delete's inverse and
        # the statement returns to its original position.
        assert restored.insertions == deleted.deletions
        assert restored.deletions == deleted.insertions
        assert editor.checkpoint() == before
        assert [s.label for s in method.body] == order_before

    def test_restore_clamps_position_to_block_length(self):
        program = numeric_program()
        editor = SourceEditor(program, extractor=value_facts)
        method = next(iter(program.methods()))
        last = method.body[-1].label
        also = method.body[-2].label
        editor.delete_statement(also)
        editor.delete_statement(last)
        # Restoring the former last statement into the now-shorter block
        # appends it rather than indexing past the end.
        editor.restore_statement(last)
        assert method.body[-1].label == last

    def test_restore_of_never_deleted_label_rejected(self):
        editor = SourceEditor(numeric_program(), extractor=value_facts)
        with pytest.raises(KeyError, match="was not deleted"):
            editor.restore_statement("Main.main/0")

    def test_restore_is_single_shot(self):
        program = numeric_program()
        editor = SourceEditor(program, extractor=value_facts)
        label = next(iter(program.methods())).body[0].label
        editor.delete_statement(label)
        editor.restore_statement(label)
        with pytest.raises(KeyError):
            editor.restore_statement(label)


class TestRenameAllocation:
    def test_rename_moves_alloc_fact(self):
        from repro.corpus import load_subject
        import copy

        program = copy.deepcopy(load_subject("minijavac"))
        editor = SourceEditor(program, extractor=pointsto_facts)
        site = next(
            s for m in program.methods() for s in m.statements()
            if type(s).__name__ == "New"
        )
        old_cls = site.cls
        new_cls = next(
            name for name, c in program.classes.items()
            if not c.is_abstract and name not in ("Object", old_cls)
        )
        change = editor.rename_allocation(site.label, new_cls)
        # The site's object-type fact moves from the old class to the new.
        assert (site.label, new_cls) in change.insertions["otype"]
        assert (site.label, old_cls) in change.deletions["otype"]
        assert site.cls == new_cls

    def test_rename_non_allocation_rejected(self):
        program = numeric_program()
        editor = SourceEditor(program, extractor=value_facts)
        label = next(
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "ConstAssign"
        )
        with pytest.raises(ValueError, match="not an allocation"):
            editor.rename_allocation(label, "Object")
