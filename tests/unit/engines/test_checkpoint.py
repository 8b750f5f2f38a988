"""Unit tests for solver checkpointing (precomputed initial analysis)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import constant_propagation
from repro.changes import literal_to_zero_changes
from repro.corpus import load_subject
from repro.datalog import SolverError
from repro.datalog.errors import CheckpointError
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.engines.checkpoint import (
    MAGIC,
    CheckpointLog,
    dump_state,
    load_base,
    load_checkpoint,
    read_log,
    save_checkpoint,
    write_checkpoint,
)
from repro.robustness import FaultInjected, inject

from .helpers import (
    const_prop_program,
    figure3_facts,
    load,
    singleton_pointsto_program,
    tc_facts,
    tc_program,
)

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]


@pytest.mark.parametrize("engine", ENGINES)
class TestRoundtrip:
    def test_plain_datalog(self, engine, tmp_path):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        path = tmp_path / "tc.ckpt"
        size = save_checkpoint(solver, path)
        assert size > 0
        restored = load_checkpoint(engine, tc_program(), path)
        assert restored.relations() == solver.relations()

    def test_restored_solver_updates(self, engine, tmp_path):
        solver = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
        path = tmp_path / "tc.ckpt"
        save_checkpoint(solver, path)
        restored = load_checkpoint(engine, tc_program(), path)
        restored.update(insertions={"edge": {(3, 4)}})
        solver.update(insertions={"edge": {(3, 4)}})
        assert restored.relations() == solver.relations()
        restored.update(deletions={"edge": {(1, 2)}})
        solver.update(deletions={"edge": {(1, 2)}})
        assert restored.relations() == solver.relations()


class TestLatticeState:
    def test_lattice_analysis_roundtrip(self, tmp_path):
        solver = load(
            LaddderSolver, singleton_pointsto_program(), figure3_facts()
        )
        path = tmp_path / "pt.ckpt"
        save_checkpoint(solver, path)
        restored = load_checkpoint(
            LaddderSolver, singleton_pointsto_program(), path
        )
        assert restored.relations() == solver.relations()
        # Aggregation group state survived: deletions reconcile correctly.
        change = {"alloc": {("c", "F2", "proc")}}
        restored.update(deletions=change)
        solver.update(deletions=change)
        assert restored.relations() == solver.relations()

    def test_constprop_roundtrip(self, tmp_path):
        facts = {"lit": {("x", 1)}, "copy": {("y", "x")}}
        solver = load(LaddderSolver, const_prop_program(), facts)
        path = tmp_path / "cp.ckpt"
        save_checkpoint(solver, path)
        restored = load_checkpoint(LaddderSolver, const_prop_program(), path)
        restored.update(insertions={"lit": {("y", 2)}})
        solver.update(insertions={"lit": {("y", 2)}})
        assert restored.relations() == solver.relations()


class TestValidation:
    def test_unsolved_rejected(self, tmp_path):
        solver = LaddderSolver(tc_program())
        with pytest.raises(SolverError, match="unsolved"):
            save_checkpoint(solver, tmp_path / "x.ckpt")

    def test_wrong_engine_rejected(self, tmp_path):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        path = tmp_path / "x.ckpt"
        save_checkpoint(solver, path)
        with pytest.raises(SolverError, match="taken from"):
            load_checkpoint(SemiNaiveSolver, tc_program(), path)

    def test_wrong_program_rejected(self, tmp_path):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2)}))
        path = tmp_path / "x.ckpt"
        save_checkpoint(solver, path)
        from repro.datalog import parse

        other = parse("tc(X, Y) :- edge(Y, X).")
        with pytest.raises(SolverError, match="rules differ"):
            load_checkpoint(LaddderSolver, other, path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"whatever": 1}))
        with pytest.raises(SolverError, match="not a repro checkpoint"):
            load_checkpoint(LaddderSolver, tc_program(), path)

    def test_storage_backend_entry(self, tmp_path, monkeypatch):
        """Files written while a columnar storage backend existed name their
        backend: an ``object`` one restores, a columnar one is refused."""
        from repro.engines import relation

        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3)}))
        payload = pickle.loads(dump_state(solver))
        path = tmp_path / "x.ckpt"
        write_checkpoint(
            pickle.dumps({**payload, "backend": "object", "intern": None}), path
        )
        restored = load_checkpoint(LaddderSolver, tc_program(), path)
        assert restored.relations() == solver.relations()
        write_checkpoint(
            pickle.dumps({**payload, "backend": "columnar", "intern": [1, 2, 3]}),
            path,
        )
        with pytest.raises(CheckpointError, match="'columnar' storage backend"):
            load_checkpoint(LaddderSolver, tc_program(), path)
        # Most real columnar files hold instances of a relation class this
        # build no longer has: refused one step earlier, still typed, so a
        # spool holding one falls back to a from-scratch open.
        gone = type(
            "ColumnarRelation", (relation.IndexedRelation,),
            {"__slots__": (), "__module__": relation.__name__},
        )
        monkeypatch.setattr(relation, "ColumnarRelation", gone, raising=False)
        body = pickle.dumps({**payload, "backend": "columnar", "extra": gone(1)})
        monkeypatch.delattr(relation, "ColumnarRelation")
        write_checkpoint(body, path)
        with pytest.raises(CheckpointError, match="ColumnarRelation"):
            load_checkpoint(LaddderSolver, tc_program(), path)


class TestEnvelopeHardening:
    """Format v2: version field, payload checksum, atomic writes.

    A corrupt, truncated, or stale checkpoint must fail *loudly* with a
    typed :class:`CheckpointError` — never deserialize into silently
    partial solver state."""

    def _saved(self, tmp_path):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3)}))
        path = tmp_path / "tc.ckpt"
        save_checkpoint(solver, path)
        return path

    def test_errors_are_typed(self, tmp_path):
        solver = LaddderSolver(tc_program())
        with pytest.raises(CheckpointError):
            save_checkpoint(solver, tmp_path / "x.ckpt")
        assert issubclass(CheckpointError, SolverError)

    def test_truncated_file_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(LaddderSolver, tc_program(), path)

    def test_truncated_below_header_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(LaddderSolver, tc_program(), path)

    def test_bit_flip_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip bits inside the pickled payload
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(LaddderSolver, tc_program(), path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        # The u16 version sits right after the magic; pretend a v1 file.
        data[len(MAGIC)] = 0
        data[len(MAGIC) + 1] = 1
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="format version 1"):
            load_checkpoint(LaddderSolver, tc_program(), path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(LaddderSolver, tc_program(), tmp_path / "no.ckpt")

    def test_interrupted_write_preserves_old_checkpoint(self, tmp_path):
        path = self._saved(tmp_path)
        original = path.read_bytes()
        solver = load(LaddderSolver, tc_program(), tc_facts({(5, 6)}))
        with inject("checkpoint.write"):
            with pytest.raises(FaultInjected):
                save_checkpoint(solver, path)
        # Atomic rename discipline: the old file is intact, no temp debris.
        assert path.read_bytes() == original
        assert list(tmp_path.iterdir()) == [path]
        restored = load_checkpoint(LaddderSolver, tc_program(), path)
        assert restored.relation("tc") == frozenset({(1, 2), (2, 3), (1, 3)})


class TestBatchLog:
    """The log beside a session's base: numbered, checksummed lines that
    :func:`read_log` validates before anything is replayed."""

    RECORDS = [
        {"seq": n, "version": n + 1, "insert": {"e": [[n, "ü"]]}, "delete": {}}
        for n in range(1, 5)
    ]

    def _written(self, tmp_path, records=RECORDS):
        log = CheckpointLog(tmp_path / "s.ckpt.log")
        for record in records:
            log.append(record)
        log.close()
        assert log.bytes == log.path.stat().st_size
        return log.path

    def test_roundtrip_and_coverage(self, tmp_path):
        path = self._written(tmp_path)
        assert read_log(path) == (self.RECORDS, 4, path.stat().st_size)
        # A base that covers record 2 replays 3 and 4 ...
        assert read_log(path, after=2)[0] == self.RECORDS[2:]
        # ... one that covers them all replays nothing, and says where the
        # numbering goes on.
        assert read_log(path, after=4) == ([], 4, path.stat().st_size)

    def test_empty_and_missing_logs_replay_nothing(self, tmp_path):
        assert read_log(self._written(tmp_path, records=[]), after=7) == ([], 7, 0)
        assert read_log(tmp_path / "absent.log", after=7) == ([], 7, 0)

    def test_truncated_final_record_is_dropped_and_the_rest_replays(self, tmp_path):
        path = self._written(tmp_path)
        data = path.read_bytes()
        whole = data[: data.rindex(b"\n", 0, -1) + 1]  # the first three lines
        for cut in (len(whole) + 1, len(data) - 10, len(data) - 1):
            path.write_bytes(data[:cut])
            assert read_log(path) == (self.RECORDS[:3], 3, len(whole))
        # Reopening at what the reader reported cuts the torn bytes off and
        # goes on numbering from the last whole record.
        log = CheckpointLog(path, records=3, size=len(whole))
        log.append(self.RECORDS[3])
        log.close()
        assert read_log(path)[:2] == (self.RECORDS, 4)

    def test_flipped_byte_in_a_middle_record_is_a_typed_error(self, tmp_path):
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        data[data.index(b"\n") + 20] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="after record 1 is corrupt"):
            read_log(path)
        # So is a final record that is whole but wrong: only a missing
        # newline says "torn by the crash".
        data = bytearray(self._written(tmp_path).read_bytes())
        data[-3] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="after record 3 is corrupt"):
            read_log(path)

    def test_skipped_number_and_gap_after_the_base_are_typed_errors(self, tmp_path):
        path = self._written(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[2] + lines[3])
        with pytest.raises(CheckpointError, match="numbered 3"):
            read_log(path)
        path.write_bytes(lines[2] + lines[3])
        assert read_log(path, after=2)[0] == self.RECORDS[2:]
        with pytest.raises(CheckpointError, match="starts at record 3"):
            read_log(path, after=1)

    def test_trim_keeps_the_tail_and_the_numbering(self, tmp_path):
        path = self._written(tmp_path, self.RECORDS[:3])
        covered = len(b"".join(path.read_bytes().splitlines(keepends=True)[:2]))
        log = CheckpointLog(path, records=3, size=path.stat().st_size)
        log.trim(covered)
        log.append(self.RECORDS[3])
        log.close()
        assert read_log(path, after=2) == (
            self.RECORDS[2:], 4, path.stat().st_size
        )
        assert log.bytes == path.stat().st_size
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ckpt.log"]

    def test_injected_append_failure_tears_the_record_and_breaks_the_log(
        self, tmp_path
    ):
        log = CheckpointLog(tmp_path / "s.ckpt.log")
        log.append(self.RECORDS[0])
        whole = log.bytes
        with inject("log.append") as plan:
            with pytest.raises(FaultInjected):
                log.append(self.RECORDS[1])
        assert plan.fired and log.broken and log.records == 1
        assert whole < log.bytes == log.path.stat().st_size
        log.close()
        assert read_log(log.path) == (self.RECORDS[:1], 1, whole)

    def test_base_names_what_it_covers(self, tmp_path):
        solver = load(LaddderSolver, tc_program(), tc_facts({(1, 2), (2, 3)}))
        path = tmp_path / "tc.ckpt"
        write_checkpoint(dump_state(solver, covers=(17, 40)), path)
        restored, record, seq = load_base(LaddderSolver, tc_program(), path)
        assert (record, seq) == (17, 40)
        assert restored.relation("tc") == solver.relation("tc")
        # A file written without a log (``save``, the CLI, a parent build's
        # fixture) covers nothing of any.
        save_checkpoint(solver, path)
        assert load_base(LaddderSolver, tc_program(), path)[1:] == (0, 0)


class TestProvenancePayload:
    """Format v4 payloads written by older builds."""

    def test_parent_annotated_checkpoint_restores_and_keeps_updating(self):
        """``tests/fixtures/parent_annotated.ckpt`` was written by the last
        build with provenance capture, from an annotated Laddder solve of
        ``tc`` over the edges below; its ``provenance`` entry is ignored."""
        from pathlib import Path

        from repro.engines.checkpoint import _HEADER

        path = Path(__file__).parents[2] / "fixtures" / "parent_annotated.ckpt"
        payload = pickle.loads(path.read_bytes()[_HEADER.size:])
        assert payload["provenance"]["annotations"]
        restored = load_checkpoint(LaddderSolver, tc_program(), path)
        live = load(
            LaddderSolver, tc_program(),
            tc_facts({(1, 2), (2, 3), (3, 1), (3, 4)}),
        )
        assert restored.relations() == live.relations()
        for batch in (
            {"insertions": {"edge": {(4, 5)}}},
            {"deletions": {"edge": {(3, 1)}}},
        ):
            assert restored.update(**batch).inserted == live.update(**batch).inserted
            assert restored.relations() == live.relations()

    def test_optimized_pickle_file_still_reads(self, tmp_path, config):
        """Files written before ``pickletools.optimize`` was dropped carry
        the same v4 envelope around an optimised pickle; they must load
        to the same state (the size cost of the plain pickle is a
        measurement, recorded in EXPERIMENTS.md)."""
        import hashlib
        import pickletools

        from repro.engines.checkpoint import _HEADER, VERSION
        from repro.service import take_snapshot

        instance = constant_propagation(load_subject("minijavac"))
        solver = instance.make_solver(LaddderSolver, config=config)
        plain = dump_state(solver)
        body = pickletools.optimize(plain)
        assert body != plain
        old = tmp_path / "optimized.ckpt"
        old.write_bytes(
            _HEADER.pack(MAGIC, VERSION, hashlib.sha256(body).digest()) + body
        )
        new = tmp_path / "plain.ckpt"
        assert save_checkpoint(solver, new) == _HEADER.size + len(plain)

        live = take_snapshot(solver, 1).digest()
        fresh = constant_propagation(load_subject("minijavac")).program
        for path in (old, new):
            restored = load_checkpoint(LaddderSolver, fresh, path, config=config)
            assert take_snapshot(restored, 1).digest() == live

@pytest.mark.parametrize("engine_cls", [LaddderSolver, SemiNaiveSolver])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=3, deadline=None)
def test_checkpoint_resume_equals_live(engine_cls, tmp_path_factory, seed):
    """Solve, apply a change, checkpoint, restore, then apply one more
    change to saver and restorer alike: their exports stay equal."""
    instance = constant_propagation(load_subject("minijavac", scale=0.3))
    changes = literal_to_zero_changes(instance, 2, seed=seed)
    solver = instance.make_solver(engine_cls)
    solver.update(
        insertions=changes[0].insertions, deletions=changes[0].deletions
    )
    path = tmp_path_factory.mktemp("ckpt") / f"{seed}.ckpt"
    save_checkpoint(solver, path)
    restored = load_checkpoint(engine_cls, instance.program, path)
    for s in (solver, restored):
        s.update(
            insertions=changes[1].insertions, deletions=changes[1].deletions
        )
    assert restored.relations() == solver.relations()


def test_checkpoint_beats_reinit_on_corpus(tmp_path):
    """The precomputation story: restoring is much faster than re-solving."""
    import time

    from repro.analyses import kupdate_pointsto

    instance = kupdate_pointsto(load_subject("pmd"))
    start = time.perf_counter()
    solver = instance.make_solver(LaddderSolver)
    init_time = time.perf_counter() - start
    path = tmp_path / "pmd.ckpt"
    save_checkpoint(solver, path)

    fresh = kupdate_pointsto(load_subject("pmd"))
    start = time.perf_counter()
    restored = load_checkpoint(LaddderSolver, fresh.program, path)
    restore_time = time.perf_counter() - start
    assert restored.relations() == solver.relations()
    # Generous bound: what a save and an open cost is measured by the
    # repository benchmark (engines.checkpoint.*, service.session.open_s);
    # here we only guard against restoring becoming pathologically slower
    # than solving.
    assert restore_time < init_time * 2
