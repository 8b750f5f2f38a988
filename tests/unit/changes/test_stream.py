"""Unit tests for the seeded edit-stream generator (the soak workload)."""

import copy

import pytest

from repro.analyses import ANALYSES
from repro.changes import IncrementalSourceEditor, SourceEditor
from repro.changes.stream import EditStream, editor_for
from repro.changes.source_edits import pointsto_facts, value_facts
from repro.corpus import load_subject

from tests.unit.javalite.fixtures import numeric_program


def minijavac():
    # load_subject is memoized; editing demands a private copy.
    return copy.deepcopy(load_subject("minijavac"))


def stream_for(program=None, analysis="pointsto-kupdate", **kwargs):
    program = minijavac() if program is None else program
    return EditStream(editor_for(program, analysis), **kwargs)


class TestDeterminism:
    def test_same_seed_replays_bit_identical(self):
        a = stream_for(seed=11).take(50)
        b = stream_for(seed=11).take(50)
        assert [s.kind for s in a] == [s.kind for s in b]
        assert [s.change.label for s in a] == [s.change.label for s in b]
        assert [s.index for s in a] == list(range(50))

    def test_different_seeds_diverge(self):
        a = stream_for(seed=1).take(30)
        b = stream_for(seed=2).take(30)
        assert [s.change.label for s in a] != [s.change.label for s in b]

    def test_fact_diffs_compose_to_editor_state(self):
        # Replaying every emitted Change over the initial fact snapshot
        # must land exactly on the editor's own fact state — the soak
        # harness relies on this to rebuild reference inputs by seed.
        stream = stream_for(seed=3)
        facts = stream.editor.checkpoint()
        for step in stream.take(40):
            step.change.apply_to(facts)
        checkpoint = stream.editor.checkpoint()
        assert {p: r for p, r in facts.items() if r} == {
            p: set(r) for p, r in checkpoint.items() if r
        }


class TestOutstandingPool:
    def test_outstanding_never_exceeds_bound(self):
        stream = stream_for(
            seed=5,
            max_outstanding=3,
            weights={"delete": 10, "restore": 1},
        )
        for _ in range(40):
            stream.step()
            assert len(stream.outstanding) <= 3

    def test_full_pool_forces_restore_without_restore_weight(self):
        # Regression: a forced restore must be countable even when the
        # caller's weights omit the "restore" kind entirely.
        stream = stream_for(seed=0, max_outstanding=2, weights={"delete": 1})
        kinds = [stream.step().kind for _ in range(10)]
        assert kinds[:3] == ["delete", "delete", "restore"]
        assert set(kinds) == {"delete", "restore"}
        assert stream.counts["restore"] == kinds.count("restore")
        assert all(len(stream.outstanding) <= 2 for _ in [0])

    def test_restore_revives_deleted_label(self):
        stream = stream_for(seed=9, weights={"delete": 1, "restore": 0},
                            max_outstanding=4)
        deleted = stream.step()
        label = deleted.change.label.split()[1]
        assert label in stream.outstanding
        restored = stream.editor.restore_statement(label)
        assert restored.label == f"restore-stmt {label}"


class TestCounts:
    def test_counts_mirror_emitted_kinds(self):
        stream = stream_for(seed=4)
        steps = stream.take(60)
        for kind in stream.counts:
            assert stream.counts[kind] == sum(
                1 for s in steps if s.kind == kind
            )
        assert sum(stream.counts.values()) == 60

    def test_infeasible_kinds_fall_out(self):
        # numeric_program allocates nothing: rename never fires even with
        # an overwhelming weight on it.
        stream = EditStream(
            editor_for(numeric_program(), "constprop"),
            seed=2,
            weights={"literal": 1, "rename": 1000},
        )
        assert all(s.kind == "literal" for s in stream.take(20))

    def test_no_editable_statements_raises(self):
        stream = EditStream(
            editor_for(numeric_program(), "constprop"),
            seed=0,
            weights={"rename": 1},
        )
        with pytest.raises(RuntimeError):
            stream.step()


class TestEditorFor:
    @pytest.mark.parametrize("analysis", sorted(ANALYSES))
    def test_edits_reach_every_analysis_input(self, analysis):
        """Forty seed-7 edits applied to an instance's facts land on the
        facts the analysis builds from the edited program: the editor
        extracts the schema the analysis reads, taint's included."""
        program = minijavac()
        facts = {p: set(r) for p, r in ANALYSES[analysis](program).facts.items()}
        for step in EditStream(editor_for(program, analysis), seed=7).take(40):
            step.change.apply_to(facts)
        rebuilt = ANALYSES[analysis](program).facts
        assert {p: r for p, r in facts.items() if r} == {
            p: r for p, r in rebuilt.items() if r
        }

    def test_incremental_by_default(self):
        editor = editor_for(minijavac(), "constprop")
        assert isinstance(editor, IncrementalSourceEditor)
        assert editor.extractor is not pointsto_facts

    def test_pointsto_analyses_get_pointsto_extraction(self):
        editor = editor_for(minijavac(), "pointsto-kupdate", incremental=False)
        assert type(editor) is SourceEditor
        assert editor.extractor is pointsto_facts

    def test_value_analyses_get_value_extraction(self):
        editor = editor_for(minijavac(), "constprop", incremental=False)
        assert type(editor) is SourceEditor
        assert editor.extractor is value_facts
