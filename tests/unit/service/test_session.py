"""Unit tests for the session layer: batching, isolation, failure modes.

The central regression here (the PR's bugfix satellite): a batch that
fails mid-apply must roll back via the guard journal AND leave the
previously published snapshot queryable — readers never see the failed
batch, half-applied state, or an outage.
"""

import copy
import gc
import os
import sys
import threading
import time
import weakref

import pytest

from repro.analyses import constant_propagation
from repro.changes import literal_to_zero_changes
from repro.changes.stream import EditStream, editor_for
from repro.corpus import load_subject
from repro.datalog.errors import ServiceError
from repro.engines.checkpoint import read_log
from repro.metrics import TraceSink
from repro.robustness import inject
from repro.service import Session, SessionConfig, take_snapshot
from repro.service.session import ENGINES
from repro.service.snapshot import render_row, stable_repr


def make_session(**overrides) -> Session:
    kwargs = dict(
        analysis="constprop",
        subject="minijavac",
        engine="laddder",
        # Manual-flush defaults: nothing applies until the test says so.
        flush_size=10_000,
        flush_latency=600.0,
    )
    kwargs.update(overrides)
    return Session("test", SessionConfig(**kwargs))


@pytest.fixture
def changes():
    instance = constant_propagation(load_subject("minijavac"))
    return literal_to_zero_changes(instance, 3, seed=11)


def close(session):
    if not session.closed:
        session.close()


class TestLifecycle:
    def test_open_publishes_initial_snapshot(self):
        session = make_session()
        try:
            snap = session.snapshot
            assert snap.version == 1
            assert session.query("val")["count"] > 0
            assert session.init_seconds > 0
        finally:
            close(session)

    def test_bad_config_rejected_early(self):
        with pytest.raises(ServiceError, match="unknown analysis"):
            SessionConfig(analysis="nope", subject="minijavac").validate()
        with pytest.raises(ServiceError, match="unknown subject"):
            SessionConfig(analysis="constprop", subject="jdk").validate()
        with pytest.raises(ServiceError, match="unknown engine"):
            SessionConfig(
                analysis="constprop", subject="minijavac", engine="magic"
            ).validate()

    def test_closed_session_rejects_everything(self, changes):
        session = make_session()
        result = session.close()
        assert result["closed"]
        assert session.close()["closed"]  # idempotent
        for call in (
            lambda: session.update(insertions=changes[0].insertions),
            session.flush,
            lambda: session.query("val"),
            session.snapshot_info,
        ):
            with pytest.raises(ServiceError, match="closed"):
                call()

    def test_close_drains_pending_updates(self, changes):
        session = make_session()
        session.update(
            insertions=changes[0].insertions, deletions=changes[0].deletions
        )
        result = session.close()
        # The pending batch was applied, not dropped, on the way out.
        assert result["version"] == 2
        assert session.metrics.batches_applied == 1


class TestBatching:
    def test_flush_applies_and_bumps_version(self, changes):
        session = make_session()
        try:
            change = changes[0]
            out = session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            assert out["pending"] > 0
            assert session.snapshot.version == 1  # not yet applied
            flushed = session.flush()
            assert flushed["ok"] and flushed["version"] == 2
            assert session.snapshot.version == 2
            assert flushed["impact"] > 0
        finally:
            close(session)

    def test_flush_with_nothing_pending_is_a_noop(self):
        session = make_session()
        try:
            out = session.flush()
            assert out == {"ok": True, "version": 1, "size": 0, "noop": True}
        finally:
            close(session)

    def test_do_undo_pair_coalesces_to_zero_impact(self, changes):
        session = make_session()
        try:
            do, undo = changes[0], changes[1]
            session.update(insertions=do.insertions, deletions=do.deletions)
            session.update(insertions=undo.insertions, deletions=undo.deletions)
            digest_before = session.snapshot.digest()
            out = session.flush()
            # The EDB membership oracle cancels the do/undo pair inside
            # the queue, so the flush has nothing to apply at all —
            # stronger than the zero-impact epoch it used to cost.
            assert out["ok"] and out.get("impact", 0) == 0
            assert session.snapshot.digest() == digest_before
            assert session.metrics.updates_coalesced > 0
        finally:
            close(session)

    def test_size_threshold_triggers_worker(self, changes):
        session = make_session(flush_size=1, flush_latency=600.0)
        try:
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            deadline = time.monotonic() + 10
            while session.snapshot.version < 2:
                assert time.monotonic() < deadline, "size flush never fired"
                time.sleep(0.005)
        finally:
            close(session)

    def test_latency_deadline_triggers_worker(self, changes):
        # One small update, far below the size threshold: only the latency
        # policy can flush it (regression for the missed-wakeup case where
        # the worker slept forever on a below-threshold enqueue).
        session = make_session(flush_size=10_000, flush_latency=0.02)
        try:
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            deadline = time.monotonic() + 10
            while session.snapshot.version < 2:
                assert time.monotonic() < deadline, "latency flush never fired"
                time.sleep(0.005)
        finally:
            close(session)


class TestFailedBatch:
    def test_failed_batch_keeps_previous_snapshot_queryable(self, changes):
        """The bugfix regression: inject kernel.emit faults mid-batch and
        assert pre-batch query results are still served afterwards."""
        session = make_session()
        try:
            pre = session.snapshot
            pre_digest = pre.digest()
            pre_rows = session.query("val")["rows"]
            assert session.metrics.renders == 1  # rows; a digest renders nothing
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            with inject("kernel.emit", at=3) as plan:
                out = session.flush()
            assert plan.fired, "fault never reached the kernel"
            assert not out["ok"]
            assert "RollbackError" in out["error"]

            # The failed batch published nothing; readers still get the
            # pre-batch state, bit-equal.
            assert session.snapshot is pre
            assert session.snapshot.digest() == pre_digest
            served = session.query("val")
            assert served["version"] == pre.version
            assert served["rows"] == pre_rows
            # ... from the render it already had: nothing was built again.
            assert session.metrics.renders == 1
            assert session.failed_batches == 1
            assert session.last_error and "RollbackError" in session.last_error
            assert session.metrics.rollbacks == 1

            # The session is not poisoned: the same change applies cleanly.
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            out = session.flush()
            assert out["ok"] and out["version"] == 2
            assert session.query("val")["version"] == 2
            # Carried from the pre-batch digest across the failed batch.
            assert session.snapshot.digest() == _scratch_digest(session)
        finally:
            close(session)

    def test_fallback_session_survives_poisoned_batch(self, changes):
        session = make_session(fallback=True)
        try:
            session.snapshot.digest()  # carry the digest across the fallback
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            with inject("kernel.emit", at=3) as plan:
                out = session.flush()
            assert plan.fired
            # Graceful degradation: the batch's effect IS published, via
            # the from-scratch reference re-solve.
            assert out["ok"] and out["version"] == 2
            assert session.metrics.fallback_resolves == 1

            reference = make_session()
            reference.update(
                insertions=change.insertions, deletions=change.deletions
            )
            reference.flush()
            assert session.snapshot._sum is not None  # carried, not summed
            assert session.snapshot.digest() == reference.snapshot.digest()
            close(reference)
        finally:
            close(session)

    def test_budget_trip_drops_batch_and_keeps_serving(self, changes):
        session = make_session()
        try:
            # Arm after the initial solve: only batch applies can trip it.
            session.solver.budget.deadline = -1.0
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            out = session.flush()
            assert not out["ok"]
            assert "BudgetExceededError" in out["error"]
            assert session.snapshot.version == 1
            assert session.query("val")["version"] == 1
        finally:
            close(session)


class _GateSink(TraceSink):
    """Blocks the first stratum of an apply until the test releases it."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._blocked_once = False

    def on_stratum_start(self, index, predicates):
        if not self._blocked_once:
            self._blocked_once = True
            self.entered.set()
            assert self.release.wait(timeout=30), "test never released the gate"


class TestSnapshotIsolation:
    def test_queries_served_while_batch_is_applying(self, changes):
        session = make_session(profile=True)
        try:
            gate = _GateSink()
            session.metrics.sink = gate
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            flusher = threading.Thread(target=session.flush, daemon=True)
            flusher.start()
            assert gate.entered.wait(timeout=30), "apply never started"
            # The worker is now mid-apply, holding the solver; reads must
            # neither block nor observe partial state.
            t0 = time.monotonic()
            served = session.query("val")
            assert time.monotonic() - t0 < 1.0
            assert served["version"] == 1
            gate.release.set()
            flusher.join(timeout=30)
            assert not flusher.is_alive()
            assert session.query("val")["version"] == 2
        finally:
            close(session)


    def test_racing_readers_get_whole_versions_and_share_renders(self, changes):
        """Readers race the first render of a fresh version, and the publish
        of the next one: every response's rows are exactly the rows of the
        version it names, each version is rendered at most once per racing
        reader (there is no lock to make it exactly once), and a replaced
        version dies with its render."""
        readers, warmup = 8, 5
        session = make_session(profile=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            gate = _GateSink()
            session.metrics.sink = gate
            snapshots = {1: session.snapshot}
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            flusher = threading.Thread(target=session.flush, daemon=True)
            flusher.start()
            assert gate.entered.wait(timeout=30), "apply never started"
            assert session.metrics.renders == 0  # version 1 is still unread

            barrier = threading.Barrier(readers)
            warmed = threading.Semaphore(0)
            responses: list[list[dict]] = [[] for _ in range(readers)]

            def read(slot):
                barrier.wait(timeout=30)
                deadline = time.monotonic() + 30
                extra = 3
                while extra and time.monotonic() < deadline:
                    response = session.query("val")
                    responses[slot].append(response)
                    if len(responses[slot]) == warmup:
                        warmed.release()
                    if response["version"] == 2:
                        extra -= 1

            threads = [
                threading.Thread(target=read, args=(slot,), daemon=True)
                for slot in range(readers)
            ]
            for thread in threads:
                thread.start()
            for _ in range(readers):  # everyone has raced version 1 ...
                assert warmed.acquire(timeout=30)
            assert 1 <= session.metrics.renders <= readers
            gate.release.set()  # ... now version 2 is published under them
            for thread in threads + [flusher]:
                thread.join(timeout=60)
                assert not thread.is_alive()

            snapshots[2] = session.snapshot
            assert snapshots[2].version == 2
            expected = {
                version: [
                    render_row(row)
                    for row in sorted(snap.views["val"], key=stable_repr)
                ]
                for version, snap in snapshots.items()
            }
            assert expected[1] != expected[2]
            served = [r for per_reader in responses for r in per_reader]
            assert {r["version"] for r in served} == {1, 2}
            for response in served:
                assert response["rows"] == expected[response["version"]]
            assert 2 <= session.metrics.renders <= 2 * readers
            assert len(served) >= readers * (warmup + 3)
            settled = session.metrics.renders
            assert session.query("val")["rows"] == expected[2]
            assert session.metrics.renders == settled  # a hit builds nothing

            replaced = weakref.ref(snapshots.pop(1))
            gc.collect()
            assert replaced() is None, "a replaced version outlived its readers"
        finally:
            sys.setswitchinterval(interval)
            close(session)


class TestSaveRestore:
    def test_save_restore_roundtrip(self, tmp_path, changes):
        path = tmp_path / "session.ckpt"
        session = make_session()
        try:
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            saved = session.save(path)
            # save() flushes first: the checkpoint includes the batch.
            assert saved["version"] == 2
            assert saved["bytes"] > 0
            digest_after_change = session.snapshot.digest()

            # Mutate further, then restore: back to the checkpointed state.
            undo = changes[1]
            session.update(insertions=undo.insertions, deletions=undo.deletions)
            session.flush()
            assert session.snapshot.digest() != digest_after_change
            restored = session.restore(path)
            assert restored["version"] == 4  # versions never run backwards
            assert session.snapshot.digest() == digest_after_change
            # The restored solver still updates incrementally, and the
            # digest read above is carried on from the restored version.
            session.update(insertions=undo.insertions, deletions=undo.deletions)
            out = session.flush()
            assert out["ok"]
            assert session.snapshot._sum is not None
            assert session.snapshot.digest() == _scratch_digest(session)
        finally:
            close(session)

    def test_restore_discards_pending_updates(self, tmp_path, changes):
        path = tmp_path / "session.ckpt"
        session = make_session()
        try:
            session.save(path)
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            restored = session.restore(path)
            assert restored["dropped"] > 0
            # Nothing left to flush: the pending batch predated the restore.
            assert session.flush()["noop"]
        finally:
            close(session)


class TestCheckpointLockScope:
    """A base write holds the solver lock while it pickles the state and
    not while it writes the file (it used to hold it for both, stalling
    the batch behind it by hundreds of milliseconds)."""

    def test_updates_publish_while_the_file_write_is_blocked(
        self, tmp_path, changes, monkeypatch
    ):
        import repro.service.session as session_mod

        entered, release = threading.Event(), threading.Event()
        real_write = session_mod.write_checkpoint

        def gated_write(body, path):
            entered.set()
            assert release.wait(timeout=30)
            return real_write(body, path)

        monkeypatch.setattr(session_mod, "write_checkpoint", gated_write)
        path = tmp_path / "spool.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            first, second = changes[0], changes[1]
            session.update(
                insertions=first.insertions, deletions=first.deletions, seq=1
            )
            # A session without a base counts as size 0: its first logged
            # batch outgrows that and triggers the first base.
            assert session.flush()["version"] == 2
            digest_at_seq_1 = session.snapshot.digest()
            assert entered.wait(timeout=30)  # serialised, now stuck writing

            # The write half is blocked; the solver must not be.
            done = threading.Event()
            seen = {}

            def client():
                session.update(
                    insertions=second.insertions,
                    deletions=second.deletions,
                    seq=2,
                )
                seen["flush"] = session.flush()
                seen["query"] = session.query("val", limit=1)
                done.set()

            worker = threading.Thread(target=client, daemon=True)
            worker.start()
            assert done.wait(timeout=30), "update blocked behind the file write"
            assert seen["flush"]["ok"] and seen["flush"]["version"] == 3
            assert seen["query"]["version"] == 3
            assert session.stats()["applied_seq"] == 2
            assert not path.exists()

            release.set()
            session._checkpoint_thread.join(timeout=30)
            assert not session._checkpoint_thread.is_alive()
            spool = session.stats()["checkpoint"]
            assert spool["written"] == 1 and spool["errors"] == 0
            assert spool["base_bytes"] == path.stat().st_size
            # The base names the record and seq that were pickled, not the
            # state the solver has moved on to since: the batch that landed
            # during the write is still in the log.
            assert (spool["log_records"], spool["durable_seq"]) == (2, 2)
            records, last, size = read_log(f"{path}.log", after=1)
            assert [r["seq"] for r in records] == [2] and last == 2
            assert size == spool["log_bytes"] == (tmp_path / "spool.ckpt.log").stat().st_size
            # The base alone is the state at seq 1 ...
            (tmp_path / "base-only.ckpt").write_bytes(path.read_bytes())
            restored = make_session(restore_from=str(tmp_path / "base-only.ckpt"))
            try:
                assert restored.snapshot.digest() == digest_at_seq_1
                assert restored.snapshot.digest() != session.snapshot.digest()
            finally:
                close(restored)
            # ... and base plus log is the live one.
            assert _recovered_digest(path) == session.snapshot.digest()
        finally:
            release.set()
            close(session)


def _recovered_digest(path, **overrides) -> str:
    """What a crash right now would recover: a second session opened from
    the spool files as they stand (copied, so the live one keeps its own)."""
    import shutil

    copy = path.with_name("crashed-" + path.name)
    for suffix in ("", ".log"):
        if os.path.exists(f"{path}{suffix}"):
            shutil.copyfile(f"{path}{suffix}", f"{copy}{suffix}")
    recovered = make_session(restore_from=str(copy), **overrides)
    try:
        return recovered.snapshot.digest()
    finally:
        close(recovered)


def _await_base(session, written: int) -> dict:
    deadline = time.monotonic() + 30
    while session.stats()["checkpoint"]["written"] < written:
        assert time.monotonic() < deadline, session.stats()["checkpoint"]
        time.sleep(0.01)
    session._checkpoint_thread.join(timeout=30)
    return session.stats()["checkpoint"]


class TestDurableLog:
    """A durable session is a base file plus a log of applied batches
    (docs/SERVICE.md, "Supervision and crash recovery")."""

    def edit(self, session, change, seq):
        session.update(
            insertions=change.insertions, deletions=change.deletions, seq=seq
        )
        return session.flush()

    def test_each_applied_batch_is_logged_before_its_flush_returns(
        self, tmp_path, changes
    ):
        path = tmp_path / "s.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            assert session.stats()["checkpoint"] == {
                "path": str(path), "every": None, "written": 0, "errors": 0,
                "last_error": None, "base_bytes": 0, "log_bytes": 0,
                "log_records": 0, "durable_seq": 0,
            }
            assert os.listdir(tmp_path) == ["s.ckpt.log"]  # no base in open
            assert self.edit(session, changes[0], seq=5)["ok"]
            # No waiting: the record is in the file when flush returns.
            (record,), last, _ = read_log(f"{path}.log")
            assert last == 1 and record["seq"] == 5 and record["version"] == 2
            assert record["insert"] == {
                pred: [list(row) for row in rows]
                for pred, rows in changes[0].insertions.items()
            }
            assert session.durable_seq == 5
            spool = _await_base(session, 1)
            # The first batch wrote the one base a short session ever
            # writes; it covers record 1, which the trim then dropped.
            assert spool["written"] == 1 and spool["log_bytes"] == 0
            for index, change in enumerate(changes[1:4], start=6):
                assert self.edit(session, change, seq=index)["ok"]
            spool = session.stats()["checkpoint"]
            assert spool["written"] == 1  # the log is far below the base
            assert (spool["log_records"], spool["durable_seq"]) == (4, 8)
            assert 0 < spool["log_bytes"] < spool["base_bytes"]
            assert _recovered_digest(path) == session.snapshot.digest()
        finally:
            close(session)
        assert sorted(os.listdir(tmp_path))[-2:] == ["s.ckpt", "s.ckpt.log"]

    def test_a_failed_batch_is_neither_logged_nor_published(
        self, tmp_path, changes
    ):
        path = tmp_path / "s.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            session.update(insertions=changes[0].insertions, seq=1)
            with inject("kernel.emit", at=1) as plan:
                out = session.flush()
            assert plan.fired and not out["ok"]
            spool = session.stats()["checkpoint"]
            assert (spool["log_records"], spool["durable_seq"]) == (0, 0)
            assert session.snapshot.version == 1
            assert _recovered_digest(path) == session.snapshot.digest()
        finally:
            close(session)

    def test_failed_append_is_recorded_not_raised_and_the_next_base_heals(
        self, tmp_path, changes
    ):
        path = tmp_path / "s.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            assert self.edit(session, changes[0], seq=1)["ok"]
            _await_base(session, 1)
            with inject("log.append") as plan:
                out = self.edit(session, changes[1], seq=2)
            # Applied and published; only not durable yet.
            assert plan.fired and out["ok"] and out["version"] == 3
            spool = _await_base(session, 2)
            assert spool["errors"] == 1
            assert "FaultInjected" in spool["last_error"]
            # The torn half-record never made seq 2 durable; the base the
            # failure triggered did, and took the torn bytes with it.
            assert (spool["log_records"], spool["log_bytes"]) == (1, 0)
            assert spool["durable_seq"] == 2
            assert self.edit(session, changes[2], seq=3)["ok"]
            assert session.durable_seq == 3
            assert read_log(f"{path}.log", after=1)[1] == 2
            assert _recovered_digest(path) == session.snapshot.digest()
        finally:
            close(session)

    def test_durable_seq_waits_for_the_base_when_the_append_failed(
        self, tmp_path, changes, monkeypatch
    ):
        import repro.service.session as session_mod

        path = tmp_path / "s.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            assert self.edit(session, changes[0], seq=1)["ok"]
            _await_base(session, 1)

            def full_disk(body, path):
                raise OSError("no space left on device")

            monkeypatch.setattr(session_mod, "write_checkpoint", full_disk)
            with inject("log.append"):
                assert self.edit(session, changes[1], seq=2)["ok"]
            session._checkpoint_thread.join(timeout=30)
            assert self.edit(session, changes[2], seq=3)["ok"]
            session._checkpoint_thread.join(timeout=30)
            # Neither the log nor a base holds seq 2, so nothing after it
            # may be reported durable either: the front end keeps both ops.
            spool = session.stats()["checkpoint"]
            assert spool["durable_seq"] == 1 and spool["errors"] == 3
            assert "no space left" in spool["last_error"]
            # What a crash now recovers is the state at seq 1: the torn
            # record is dropped, the rest of the log replays.
            assert _recovered_digest(path) != session.snapshot.digest()
            monkeypatch.undo()
            assert self.edit(session, changes[3], seq=4)["ok"]
            assert _await_base(session, 2)["durable_seq"] == 4
            assert _recovered_digest(path) == session.snapshot.digest()
        finally:
            close(session)

    def test_a_fallback_keeps_the_engine_so_the_spool_reopens(
        self, tmp_path, changes
    ):
        path = tmp_path / "s.ckpt"
        session = make_session(checkpoint_path=str(path), fallback=True)
        try:
            session.update(
                insertions=changes[0].insertions,
                deletions=changes[0].deletions,
                seq=1,
            )
            with inject("kernel.emit", at=3) as plan:
                assert session.flush()["ok"]
            assert plan.fired and session.metrics.fallback_resolves == 1
            # The base this batch triggers is written from the rebuilt solver.
            _await_base(session, 1)
            assert self.edit(session, changes[1], seq=2)["ok"]
        finally:
            close(session)
        reopened = make_session(checkpoint_path=str(path), restore_from=str(path))
        reference = make_session()
        try:
            assert type(reopened.solver.solver) is reopened.engine_cls
            for change in changes[:2]:
                reference.update(
                    insertions=change.insertions, deletions=change.deletions
                )
            assert reference.flush()["ok"]
            assert reopened.snapshot.digest() == reference.snapshot.digest()
        finally:
            close(reopened)
            close(reference)

    def test_restore_rebases_the_spool_before_it_answers(self, tmp_path, changes):
        path, saved = tmp_path / "s.ckpt", tmp_path / "saved.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            assert self.edit(session, changes[0], seq=1)["ok"]
            session.save(saved)
            digest_at_save = session.snapshot.digest()
            for seq, change in enumerate(changes[1:4], start=2):
                assert self.edit(session, change, seq=seq)["ok"]
            session.update(insertions=changes[4].insertions, seq=5)  # pending
            answer = session.restore(saved)
            # No waiting: new base, empty log, every earlier op behind it.
            assert answer["durable_seq"] == 5 and answer["dropped"] == 1
            spool = session.stats()["checkpoint"]
            assert spool["log_bytes"] == 0 and spool["written"] == 2
            assert _recovered_digest(path) == digest_at_save
            assert self.edit(session, changes[1], seq=6)["ok"]
            assert _recovered_digest(path) == session.snapshot.digest()
        finally:
            close(session)

    def test_recovery_replays_the_net_diff_not_the_record_count(self, tmp_path):
        instance = constant_propagation(load_subject("minijavac"))
        statements = sorted(instance.facts["assignlit"])[:10]
        path = tmp_path / "s.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            current = list(statements)
            for seq in range(1, 201):
                slot = seq % 10
                old = current[slot]
                current[slot] = (*old[:2], 1000 + seq)
                session.update(
                    insertions={"assignlit": [current[slot]]},
                    deletions={"assignlit": [old]},
                    seq=seq,
                )
                assert session.flush()["ok"]
            spool = _await_base(session, 1)
            # 200 batches, one of them inside the base.
            assert spool["log_records"] == 200 and spool["written"] == 1
            assert len(read_log(f"{path}.log", after=1)[0]) == 199
            live = session.snapshot.digest()
        finally:
            close(session)
        # Whatever the flush size: the whole log coalesces before it applies.
        recovered = make_session(restore_from=str(path), flush_size=8)
        try:
            assert recovered.snapshot.digest() == live
            stats = recovered.stats()
            service = stats["metrics"]["service"]
            # 199 records of one retype each: 398 ops over 10 statements
            # whose net effect is 20 keys (old literal out, last one in).
            net_keys = 20
            assert service["batches_applied"] == 1 <= -(-net_keys // 8)
            assert service["updates_enqueued"] == 398
            assert service["updates_coalesced"] == 398 - net_keys
            assert stats["checkpoint"]["durable_seq"] == stats["applied_seq"] == 200
        finally:
            close(recovered)
    def test_crash_before_the_first_base_recovers_from_the_log_alone(
        self, tmp_path, changes
    ):
        path = tmp_path / "s.ckpt"
        session = make_session(checkpoint_path=str(path))
        try:
            for seq, change in enumerate(changes[:3], start=1):
                assert self.edit(session, change, seq=seq)["ok"]
            _await_base(session, 1)
            live = session.snapshot.digest()
            os.remove(path)  # as if the crash had come during its write
            (tmp_path / "s.ckpt.log").write_bytes(
                b"".join(_log_lines(changes[:3]))
            )
        finally:
            close(session)
        resumed = make_session(checkpoint_path=str(path), restore_from=str(path))
        try:
            assert resumed.snapshot.digest() == live
            spool = resumed.stats()["checkpoint"]
            assert (spool["log_records"], spool["durable_seq"]) == (3, 3)
            # The log has outgrown the base that is not there: the missing
            # base is written at once, and the session goes on appending.
            assert _await_base(resumed, 1)["log_bytes"] == 0
            assert self.edit(resumed, changes[3], seq=4)["ok"]
            assert resumed.stats()["checkpoint"]["log_records"] == 4
            assert _recovered_digest(path) == resumed.snapshot.digest()
        finally:
            close(resumed)

    def test_corrupt_spool_fails_typed_and_a_fresh_open_starts_it_over(
        self, tmp_path, changes
    ):
        from repro.datalog.errors import CheckpointError

        path = tmp_path / "s.ckpt"
        lines = _log_lines(changes[:3])
        lines[1] = lines[1].replace(b'"seq":2', b'"seq":7')
        (tmp_path / "s.ckpt.log").write_bytes(b"".join(lines))
        with pytest.raises(CheckpointError, match="after record 1 is corrupt"):
            make_session(checkpoint_path=str(path), restore_from=str(path))
        # Neither file: nothing to restore from, as before.
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            make_session(restore_from=str(tmp_path / "absent.ckpt"))
        # The from-scratch fallback: same path, no restore_from.  Whatever
        # an earlier life left at the path is gone, temp files included.
        path.write_bytes(b"a base from another life")
        (tmp_path / "s.ckpt.log.tmp").write_bytes(b"a crash mid-trim")
        fresh = make_session(checkpoint_path=str(path))
        try:
            assert os.listdir(tmp_path) == ["s.ckpt.log"]
            assert fresh.stats()["checkpoint"]["log_bytes"] == 0
        finally:
            close(fresh)

    def test_restoring_from_elsewhere_rebases_the_own_spool(
        self, tmp_path, changes
    ):
        saved, path = tmp_path / "saved.ckpt", tmp_path / "s.ckpt"
        session = make_session()
        try:
            assert self.edit(session, changes[0], seq=None)["ok"]
            session.save(saved)
            digest = session.snapshot.digest()
        finally:
            close(session)
        warm = make_session(restore_from=str(saved), checkpoint_path=str(path))
        try:
            spool = warm.stats()["checkpoint"]
            assert spool["written"] == 1 and spool["base_bytes"] > 0
            assert _recovered_digest(path) == digest == warm.snapshot.digest()
        finally:
            close(warm)


def _log_lines(changes, first: int = 1) -> list[bytes]:
    """The log lines a session would have written for ``changes``, one batch
    each, through the product's own writer."""
    import tempfile

    from repro.engines.checkpoint import CheckpointLog

    with tempfile.TemporaryDirectory() as scratch:
        log = CheckpointLog(os.path.join(scratch, "log"), records=first - 1)
        for number, change in enumerate(changes, start=first):
            log.append({
                "seq": number,
                "version": number + 1,
                "insert": {p: list(r) for p, r in change.insertions.items()},
                "delete": {p: list(r) for p, r in change.deletions.items()},
            })
        log.close()
        with open(log.path, "rb") as handle:
            return handle.read().splitlines(keepends=True)


def _scratch_digest(session) -> str:
    """The digest of the session solver's state, summed from scratch."""
    return take_snapshot(session.solver, 0).digest()


class TestCarriedDigest:
    """Once asked for a digest, a session carries it from each batch's
    exported diff; at every version it must equal a from-scratch digest
    of the same state (the fallback, failed-batch and restore cases ride
    in ``TestFailedBatch`` and ``TestSaveRestore``)."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_digest_after_every_publish_equals_a_from_scratch_one(self, engine):
        session = make_session(engine=engine)
        try:
            session.snapshot.digest()
            program = copy.deepcopy(load_subject("minijavac"))
            stream = EditStream(editor_for(program, "constprop"), seed=5)
            for _ in range(8):
                change = stream.step().change
                session.update(
                    insertions=change.insertions, deletions=change.deletions
                )
                assert session.flush()["ok"]
                assert session.snapshot._sum is not None
                assert session.snapshot.digest() == _scratch_digest(session)
            assert session.metrics.batches_applied >= 6  # few steps are no-ops
        finally:
            close(session)

    def test_a_snapshot_of_an_unqueried_version_renders_nothing(self, changes):
        session = make_session()
        try:
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            session.flush()
            info = session.snapshot_info()
            assert info["version"] == 2
            assert info["digest"] == _scratch_digest(session)
            assert session.metrics.renders == 0
        finally:
            close(session)


class TestStats:
    def test_stats_shape_and_counters(self, changes):
        session = make_session()
        try:
            change = changes[0]
            session.update(
                insertions=change.insertions, deletions=change.deletions
            )
            session.flush()
            session.query("val")
            stats = session.stats()
            assert stats["session"] == "test"
            assert stats["engine"] == "LaddderSolver"
            assert stats["snapshot_version"] == 2
            assert stats["pending"] == 0
            assert stats["failed_batches"] == 0
            service = stats["metrics"]["service"]
            assert service["batches_applied"] == 1
            assert service["queries_served"] == 1
            assert service["snapshots_published"] == 2
            assert service["updates_enqueued"] > 0
            assert stats["queue"]["flush_size"] == 10_000
        finally:
            close(session)


class TestMembershipCancellation:
    """End-to-end: the session's EDB oracle cancels no-op edit pairs."""

    def test_insert_then_delete_of_absent_row_never_reaches_solver(self):
        session = make_session()
        try:
            row = ("ghost", "ghost")
            digest = session.snapshot.digest()
            batches_before = session.metrics.batches_applied
            out_a = session.update(insertions={"assignlit": [row]})
            out_b = session.update(deletions={"assignlit": [row]})
            # The delete is a no-op against the EDB and takes the pending
            # insert with it: nothing is left to flush.
            assert out_a["pending"] == 1
            assert out_b["pending"] == 0
            assert out_b["coalesced"] == 2
            flushed = session.flush()
            assert flushed["ok"]
            assert session.metrics.batches_applied == batches_before
            assert session.snapshot.digest() == digest
        finally:
            close(session)

    def test_delete_of_absent_row_dropped_immediately(self):
        session = make_session()
        try:
            out = session.update(deletions={"assignlit": [("ghost", "g")]})
            assert out["pending"] == 0
            assert out["coalesced"] == 1
        finally:
            close(session)
