"""One live, long-lived solver behind a batching queue and snapshots.

A :class:`Session` is the unit of residency: one analysis instance on one
subject, solved once, then kept alive across arbitrarily many update/query
round-trips.  Writes go through a :class:`~repro.service.queue.
CoalescingQueue` and are applied by a dedicated worker thread as single
guarded transactions; reads are served from the last *published*
:class:`~repro.service.snapshot.Snapshot` and never block on (or observe)
a batch in flight.

Failure semantics (the contract the chaos tests pin down):

* A batch that fails mid-apply is rolled back bit-equal by the
  :class:`~repro.robustness.GuardedSolver` journal and **dropped**; the
  previously published snapshot stays current, so readers keep getting the
  last consistent state.  The failure is recorded (``failed_batches``,
  ``last_error``) and returned to any ``flush`` waiter.
* With ``fallback=True`` the guard instead degrades to a from-scratch
  reference re-solve, and the batch's effect *is* published.
* Watchdog budgets (``deadline``, iteration/chain ceilings) apply per
  batch — a poisoned batch trips the budget, rolls back, and is dropped
  like any other failure.

Durability (docs/SERVICE.md, "Supervision and crash recovery"): a session
opened with a ``checkpoint_path`` is a *base* file in the checkpoint format
of :mod:`repro.engines.checkpoint` (v4) plus an append-only log of the
batches applied since, each logged before its flush is acknowledged.
``save`` writes such a base to a path of the caller's, flushing first;
``restore`` loads one, *discards* pending updates (they predate the state
being restored), publishes it as a fresh snapshot version and rebases the
session's own spool onto it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from ..analyses import ANALYSES
from ..config import SolverConfig
from ..corpus import PRESETS, load_subject
from ..datalog.errors import CheckpointError, ServiceError
from ..engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from ..engines.checkpoint import (
    CheckpointLog,
    dump_state,
    load_base,
    read_log,
    write_checkpoint,
)
from ..metrics import SolverMetrics
from ..robustness import GuardedSolver
from .queue import CoalescingQueue, UpdateBatch
from .snapshot import Snapshot, match_rows, take_snapshot

#: Engine registry shared with the CLI (name -> solver class).
ENGINES = {
    "laddder": LaddderSolver,
    "dredl": DRedLSolver,
    "seminaive": SemiNaiveSolver,
    "naive": NaiveSolver,
}


@dataclass
class SessionConfig:
    """Everything needed to build one session (the ``open`` request body)."""

    analysis: str
    subject: str
    engine: str = "laddder"
    scale: float = 1.0
    #: Corpus generator seed override; None keeps the preset default.
    seed: int | None = None
    #: Graceful degradation: re-solve from scratch instead of dropping a
    #: failed batch (see repro.robustness.GuardedSolver).
    fallback: bool = False
    #: Flush the pending queue once it holds this many distinct keys ...
    flush_size: int = 64
    #: ... or once its oldest operation has waited this many seconds.
    flush_latency: float = 0.05
    #: Wall-clock budget per batch apply (None = unbounded).
    deadline: float | None = None
    #: Validate engine invariants before every batch commit.
    self_check: bool = False
    #: Enabled-mode metrics (per-stratum/per-rule tables; costs timers).
    profile: bool = False
    #: Make the session durable: base file here, batch log at ``<path>.log``
    #: (both started afresh unless ``restore_from`` names the same path).
    checkpoint_path: str | None = None
    #: Build the session from this base and the log beside it instead of an
    #: initial solve (cluster crash recovery, warm start).
    restore_from: str | None = None

    def validate(self) -> None:
        if self.analysis not in ANALYSES:
            raise ServiceError(
                f"unknown analysis {self.analysis!r}; "
                f"choose from {', '.join(sorted(ANALYSES))}"
            )
        if self.subject not in PRESETS:
            raise ServiceError(
                f"unknown subject {self.subject!r}; "
                f"choose from {', '.join(sorted(PRESETS))}"
            )
        if self.engine not in ENGINES:
            raise ServiceError(
                f"unknown engine {self.engine!r}; "
                f"choose from {', '.join(sorted(ENGINES))}"
            )


class Session:
    """One resident solver with batched writes and snapshot reads."""

    #: Seconds to wait for the worker to drain on close before giving up.
    CLOSE_TIMEOUT = 60.0

    def __init__(
        self,
        name: str,
        config: SessionConfig,
        solver_config: SolverConfig | None = None,
    ):
        config.validate()
        self.name = name
        self.config = config
        #: What every solver of this session is built with — initial solve,
        #: checkpoint restore and guard fallback alike.
        self.solver_config = (
            solver_config or SolverConfig.from_env()
        ).with_request(config.self_check, config.deadline)
        self.engine_cls = ENGINES[config.engine]
        subject = load_subject(config.subject, scale=config.scale, seed=config.seed)
        self.instance = ANALYSES[config.analysis](subject)
        self.metrics = SolverMetrics(enabled=config.profile)
        t0 = time.perf_counter()
        #: Router-assigned op sequence tracking (cluster journal replay):
        #: highest seq enqueued, highest seq covered by an applied batch
        #: (written under ``_solver_lock``, read by the base writer), and
        #: highest seq a crash can no longer lose: it is in the base or the
        #: log, so the front end may forget the ops up to it.
        self._enqueued_seq = self._applied_seq = self.durable_seq = 0
        self.restored_from = config.restore_from and str(config.restore_from)
        replay, log_end, covered = [], (0, 0), 0
        base = config.restore_from
        if base is not None and (
            os.path.exists(base) or not os.path.exists(f"{base}.log")
        ):
            # Crash recovery / warm start: the base supplies the fixpoint,
            # so construction costs a load instead of a solve (and neither
            # file being there is the load's typed error).
            self.solver, covered, self._enqueued_seq = self._load(base)
        else:
            # No base; in a recovery, not yet: the crash came before the
            # session's first one landed and the log holds every batch.
            inner = self.instance.make_solver(
                self.engine_cls, solve=False,
                metrics=self.metrics, config=self.solver_config,
            )
            self.solver = GuardedSolver(inner, fallback=config.fallback)
            self.solver.solve()
        if base is not None:
            replay, *log_end = read_log(f"{base}.log", after=covered)

        #: Guards the queue, flush bookkeeping, and lifecycle flags.
        self._cond = threading.Condition()
        #: Serializes solver mutation (batch apply vs. save/restore).
        self._solver_lock = threading.Lock()
        self._applied_generation = 0
        self._in_flight = False
        self._queue = CoalescingQueue(
            config.flush_size, config.flush_latency, membership=self._membership
        )
        self._flush_requested = False
        self._last_outcome: dict | None = None
        self._closed = False
        self.failed_batches = 0
        self.last_error: str | None = None
        #: The durable half (None without a ``checkpoint_path``): the open
        #: log and the size of the base it is measured against.
        self._log: CheckpointLog | None = None
        self._base_bytes = 0
        self._base_lock = threading.Lock()
        self._checkpoint_thread: threading.Thread | None = None
        self.checkpoints_written = 0
        self.checkpoint_errors = 0
        self.last_checkpoint_error: str | None = None
        self._snapshot = take_snapshot(self.solver, 1, self.metrics)
        self.metrics.snapshots_published += 1
        self._replay(replay)
        self.init_seconds = time.perf_counter() - t0
        if config.checkpoint_path:
            self._open_spool(log_end)
        self._worker = threading.Thread(
            target=self._worker_loop, name=f"repro-session-{name}", daemon=True
        )
        self._worker.start()

    def _load(self, path) -> tuple[GuardedSolver, int, int]:
        """A guarded solver restored from the base at ``path``, with the log
        record and the router seq that base covers."""
        inner, covered, seq = load_base(
            self.engine_cls, self.instance.program, path,
            metrics=self.metrics, config=self.solver_config,
        )
        return GuardedSolver(inner, fallback=self.config.fallback), covered, seq

    # -- the write path ----------------------------------------------------

    def _membership(self, pred: str, row: tuple) -> bool | None:
        """EDB membership oracle backing queue no-op cancellation.

        Called by the queue inside ``put()``, which the session already
        serializes under ``_cond``.  Answers only when the staged fact sets
        are quiescent: a batch mid-apply mutates them concurrently, and the
        queue's pending ops themselves are not yet reflected (the queue
        accounts for those itself).  Non-EDB predicates are not client-
        editable facts, so they stay last-write-wins.
        """
        if self._in_flight:
            return None
        solver = self.solver.solver
        if pred not in solver.edb:
            return None
        return row in solver._facts.get(pred, ())

    def update(
        self,
        insertions: dict[str, list] | None = None,
        deletions: dict[str, list] | None = None,
        seq: int | None = None,
    ) -> dict:
        """Enqueue one update request; returns queue accounting, not the
        applied result — apply happens on the worker (use :meth:`flush` to
        wait for it).  ``seq`` is the cluster router's per-session op
        sequence number; log records and bases carry the highest applied
        one so recovery knows where journal replay must start."""
        with self._cond:
            self._require_open()
            if seq is not None and seq > self._enqueued_seq:
                self._enqueued_seq = seq
            ops, coalesced = self._queue.put(insertions, deletions)
            pending = len(self._queue)
            self.metrics.updates_enqueued += ops
            self.metrics.updates_coalesced += coalesced
            self.metrics.pending_depth(pending)
            # Always wake the worker: even below the size threshold it must
            # re-arm its wait with this batch's latency deadline.
            self._cond.notify_all()
            return {"ops": ops, "coalesced": coalesced, "pending": pending}

    def flush(self) -> dict:
        """Force-apply everything pending and wait; returns the outcome of
        the batch that covered this call's pending operations."""
        with self._cond:
            self._require_open()
            target = self._queue.generation
            if self._applied_generation >= target and self._queue.empty:
                return {
                    "ok": True,
                    "version": self._snapshot.version,
                    "size": 0,
                    "noop": True,
                }
            self._flush_requested = True
            self._cond.notify_all()
            while self._applied_generation < target:
                self._cond.wait()
            outcome = dict(self._last_outcome or {})
            outcome.setdefault("ok", True)
            return outcome

    def _worker_loop(self) -> None:
        while True:
            batch: UpdateBatch | None = None
            with self._cond:
                while batch is None:
                    if not self._queue.empty and (
                        self._closed
                        or self._flush_requested
                        or self._queue.ready()
                    ):
                        batch = self._queue.drain()
                        # The batch covers every op enqueued so far, so a
                        # successful apply advances the covered seq here.
                        seq_at_drain = self._enqueued_seq
                        self._in_flight = True
                        continue
                    if self._queue.empty:
                        if self._flush_requested:
                            # Nothing left to apply: satisfy waiters.
                            self._flush_requested = False
                            self._applied_generation = self._queue.generation
                            self._cond.notify_all()
                        if self._closed:
                            return
                    self._cond.wait(self._queue.seconds_until_ready())
            outcome = self._apply(batch, seq_at_drain)
            if outcome.get("ok") and self._log is not None:
                self._maybe_rebase()
            with self._cond:
                self._applied_generation = batch.generation
                self._last_outcome = outcome
                self._in_flight = False
                if self._queue.empty:
                    self._flush_requested = False
                self._cond.notify_all()

    def _apply(self, batch: UpdateBatch, seq_at_drain: int = 0) -> dict:
        """Apply one coalesced batch as a single guarded transaction and
        publish the post-batch snapshot; a failed batch publishes nothing."""
        t0 = time.perf_counter()
        error: str | None = None
        stats = None
        snapshot: Snapshot | None = None
        try:
            with self._solver_lock:
                stats = self.solver.update(
                    insertions=batch.insertions, deletions=batch.deletions
                )
                parent = self._snapshot
                snapshot = take_snapshot(
                    self.solver, parent.version + 1, self.metrics, parent, stats
                )
                # Under the solver lock so the base writer reads a seq and
                # a log position consistent with the state it serializes.
                if seq_at_drain > self._applied_seq:
                    self._applied_seq = seq_at_drain
                if self._log is not None:
                    self._log_batch(batch, snapshot.version)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        self.metrics.batch_apply_seconds += seconds
        outcome = {
            "size": batch.size,
            "enqueued": batch.enqueued,
            "touched": batch.touched,
            "seconds": seconds,
        }
        if error is None:
            self._snapshot = snapshot  # publish: a single atomic store
            self.metrics.batches_applied += 1
            self.metrics.snapshots_published += 1
            outcome.update(
                ok=True, version=snapshot.version, impact=stats.impact
            )
        else:
            self.failed_batches += 1
            self.last_error = error
            outcome.update(ok=False, version=self._snapshot.version, error=error)
        return outcome

    # -- the read path -----------------------------------------------------

    @property
    def snapshot(self) -> Snapshot:
        """The currently published snapshot (immutable; safe to hold)."""
        return self._snapshot

    def query(self, pred: str, limit: int | None = None) -> dict:
        """Read one exported view from the published snapshot.  Never
        blocks on a batch in flight and never sees a partial apply."""
        self._require_open()
        t0 = time.perf_counter()
        snap = self._snapshot
        rows = snap.query(pred)
        rendered = snap.rows(pred, limit)
        self.metrics.queries_served += 1
        self.metrics.query_seconds += time.perf_counter() - t0
        return {
            "predicate": pred,
            "version": snap.version,
            "count": len(rows),
            "rows": rendered,
        }

    # -- provenance (docs/PROVENANCE.md) -----------------------------------

    def _resolve_row(self, solver, pred: str, row: tuple) -> tuple | None:
        """Map a wire-form row (see :func:`match_rows`) onto a stored tuple
        of ``pred``: a direct match first, then the first stored row that
        renders to it."""
        relation = solver.relation(pred)
        if row in relation:
            return row
        return next(match_rows(relation, row), None)

    def explain(
        self,
        pred: str,
        row: tuple,
        max_depth: int = 12,
        max_nodes: int = 256,
    ) -> dict:
        """One derivation tree for a present tuple, against a consistent
        solver state (serialized with batch applies via the solver lock)."""
        self._require_open()
        from ..engines.explain import explain as reconstruct

        with self._solver_lock:
            solver = self.solver.solver
            resolved = self._resolve_row(solver, pred, tuple(row))
            if resolved is None:
                raise ServiceError(
                    f"{pred}{tuple(row)!r} is not present at version "
                    f"{self._snapshot.version}; use whynot for absent tuples"
                )
            tree = reconstruct(solver, pred, resolved, max_depth=max_depth)
            version = self._snapshot.version
        return {
            "predicate": pred,
            "version": version,
            "size": tree.size(),
            "height": tree.height(),
            "derivation": tree.to_dict(max_nodes=max_nodes),
        }

    def whynot(self, pred: str, row: tuple, max_rules: int = 8) -> dict:
        """The failed-derivation frontier of an absent tuple.  The row is
        taken as raw scalars (there is no stored tuple to resolve against)."""
        self._require_open()
        from ..provenance.whynot import whynot as frontier

        with self._solver_lock:
            report = frontier(
                self.solver.solver, pred, tuple(row), max_rules=max_rules
            )
            version = self._snapshot.version
        return {
            "predicate": pred,
            "version": version,
            "report": report.to_dict(),
        }

    def rollback_suggestions(
        self,
        pred: str,
        row: tuple,
        max_suggestions: int = 3,
        max_edits: int = 4,
    ) -> dict:
        """Verified input-edit sets removing an undesired derived tuple.

        Candidate verification applies real updates through the session's
        :class:`GuardedSolver` and undoes them before returning, all under
        the solver lock — queued batches wait, published snapshots never
        observe the probing, and the solver ends bit-equal to its start.
        """
        self._require_open()
        from ..provenance.rollback import suggest_rollbacks

        with self._solver_lock:
            solver = self.solver
            resolved = self._resolve_row(solver, pred, tuple(row))
            if resolved is None:
                raise ServiceError(
                    f"{pred}{tuple(row)!r} is not present at version "
                    f"{self._snapshot.version}; nothing to roll back"
                )
            suggestions = suggest_rollbacks(
                solver, pred, resolved,
                max_suggestions=max_suggestions, max_edits=max_edits,
            )
            version = self._snapshot.version
        return {
            "predicate": pred,
            "version": version,
            "suggestions": [s.to_dict() for s in suggestions],
        }

    def snapshot_info(self, views: bool = False) -> dict:
        """Version, digest, and per-predicate counts of the published
        snapshot; ``views=True`` includes every rendered row."""
        self._require_open()
        snap = self._snapshot
        info = {
            "version": snap.version,
            "digest": snap.digest(),
            "counts": snap.counts(),
        }
        if views:
            info["views"] = {pred: snap.rows(pred) for pred in sorted(snap.views)}
        return info

    # -- persistence -------------------------------------------------------

    def _open_spool(self, log_end: tuple[int, int]) -> None:
        """Open the log at ``checkpoint_path``: where recovery left it when
        the session resumed from that very path, else empty, and then an
        older base there describes another life of this name and goes."""
        path = self.config.checkpoint_path
        resumed = self.config.restore_from == path
        # So does what a crash mid-write or mid-trim left behind.
        for stale in [f"{path}.tmp", f"{path}.log.tmp"] + [path] * (not resumed):
            Path(stale).unlink(missing_ok=True)
        self._log = CheckpointLog(f"{path}.log", *(log_end if resumed else (0, 0)))
        if resumed:
            if os.path.exists(path):
                self._base_bytes = os.path.getsize(path)
            self._maybe_rebase()  # recovered from a log without a base
        elif self.config.restore_from is not None:
            self._rebase()  # the spool must hold what was restored from elsewhere

    def _replay(self, records: list[dict]) -> None:
        """Recovery's second half, before the worker starts: feed the logged
        batches the base does not cover through the live write path.  The
        queue coalesces them (a literal retyped 40 times replays once), so
        what ``_apply`` guards and budgets is the log's net diff; it is in
        the log already (``_log`` is not open yet)."""
        for record in records:
            self.update(record["insert"], record["delete"], seq=record["seq"])
        if not self._queue.empty:
            outcome = self._apply(self._queue.drain(), self._enqueued_seq)
            if not outcome["ok"]:
                raise CheckpointError(
                    f"replaying the log of session {self.name!r} failed: "
                    f"{outcome['error']}"
                )
        self._applied_generation = self._queue.generation
        # Also when the log cancelled out and nothing was applied.
        self._applied_seq = self.durable_seq = self._enqueued_seq

    def _log_batch(self, batch: UpdateBatch, version: int) -> None:
        """Append one applied batch to the log (under the solver lock,
        before its flush is acknowledged).  A failure is recorded, never
        raised: the batch stays published, ``durable_seq`` stays put (so the
        front end keeps the op) and logging waits for a base to cover it."""
        log = self._log
        if log.broken:
            return
        try:
            log.append({
                "seq": self._applied_seq,
                "version": version,
                "insert": {p: list(rows) for p, rows in batch.insertions.items()},
                "delete": {p: list(rows) for p, rows in batch.deletions.items()},
            })
        except Exception as exc:  # noqa: BLE001 - recorded for stats
            self._checkpoint_failed(exc)
        else:
            self.durable_seq = self._applied_seq

    def _maybe_rebase(self) -> None:
        """Kick the base writer once the log has outgrown the base (no base
        counts as size 0: a session's first batch writes its first one) or
        broke; called from the worker loop after a successful apply.

        The write happens on its own thread; the next batch waits only
        while that thread pickles the state under the solver lock.  While
        one is still writing, the trigger is skipped, not queued."""
        log = self._log
        if not log.broken and log.bytes <= self._base_bytes:
            return
        thread = self._checkpoint_thread
        if thread is not None and thread.is_alive():
            return
        self._checkpoint_thread = threading.Thread(
            target=self._rebase_quietly,
            name=f"repro-ckpt-{self.name}",
            daemon=True,
        )
        self._checkpoint_thread.start()

    def _rebase(self) -> None:
        """Write a new base of the current state, then drop the log records
        it covers.

        The solver lock is held only while the state is pickled; the log
        position and ``seq`` are read with it, so they describe the bytes
        written even if batches land while the file is being checksummed
        and renamed into place.  The base names the last record it covers,
        so a crash before or inside the trim recovers the same state."""
        with self._base_lock:
            log = self._log
            with self._solver_lock:
                seq, offset, healing = self._applied_seq, log.bytes, log.broken
                body = dump_state(self.solver.solver, covers=(log.records, seq))
            self._base_bytes = write_checkpoint(body, self.config.checkpoint_path)
            self.checkpoints_written += 1
            with self._solver_lock:
                log.trim(offset)
                if healing:  # nothing appended since: the torn record went
                    log.broken = False
                if seq > self.durable_seq:
                    self.durable_seq = seq

    def _rebase_quietly(self) -> None:
        """The background rebase: errors are recorded, not raised (the old
        base and the whole log stay intact; the next batch tries again)."""
        try:
            self._rebase()
        except Exception as exc:  # noqa: BLE001 - recorded for stats
            self._checkpoint_failed(exc)

    def _checkpoint_failed(self, exc: Exception) -> None:
        self.checkpoint_errors += 1
        self.last_checkpoint_error = f"{type(exc).__name__}: {exc}"

    def save(self, path) -> dict:
        """Flush pending updates, then write a base of the inner solver to
        ``path`` (atomic write; the solver lock covers the pickle only)."""
        self.flush()
        with self._solver_lock:
            version = self._snapshot.version
            body = dump_state(self.solver.solver)
        size = write_checkpoint(body, path)
        return {"path": str(path), "bytes": size, "version": version}

    def restore(self, path) -> dict:
        """Replace the solver with a checkpointed state.

        Pending (unapplied) updates are *discarded* — they were relative to
        the state being thrown away — after waiting out any batch already
        in flight.  The restored state is published as a new version, and a
        durable session rebases its spool onto it before answering: a crash
        right after must recover this state, not the one before.
        """
        with self._cond:
            self._require_open()
            dropped = len(self._queue)
            self._queue.drain()
            # Wait out a batch already being applied, then mark everything
            # enqueued so far as accounted for — it was either applied or
            # discarded, and flush waiters must not wait on it.
            while self._in_flight:
                self._cond.wait()
            self._applied_generation = self._queue.generation
            self._cond.notify_all()
        with self._solver_lock:
            self.solver = self._load(path)[0]
            snapshot = take_snapshot(
                self.solver, self._snapshot.version + 1, self.metrics
            )
            self._snapshot = snapshot
            self.metrics.snapshots_published += 1
            # Every op sent so far is behind the restored state.
            self._applied_seq = self._enqueued_seq
        if self._log is not None:
            self._rebase()
        return {
            "version": snapshot.version,
            "dropped": dropped,
            "durable_seq": self.durable_seq,
        }

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> dict:
        """Session health plus the full metrics export (docs/SERVICE.md)."""
        with self._cond:
            pending = len(self._queue)
            generation = self._queue.generation
            applied = self._applied_generation
            in_flight = self._in_flight
        log = self._log
        return {
            "in_flight": in_flight,
            "session": self.name,
            "analysis": self.config.analysis,
            "subject": self.config.subject,
            "engine": self.engine_cls.__name__,
            "solver_config": asdict(self.solver.config),
            "closed": self._closed,
            "snapshot_version": self._snapshot.version,
            "init_seconds": self.init_seconds,
            "pending": pending,
            "generation": generation,
            "applied_generation": applied,
            "failed_batches": self.failed_batches,
            "last_error": self.last_error,
            "applied_seq": self._applied_seq,
            "enqueued_seq": self._enqueued_seq,
            "restored_from": self.restored_from,
            "checkpoint": {
                "path": self.config.checkpoint_path,
                "every": None,  # read by the frozen harness (ROADMAP item 1)
                "written": self.checkpoints_written,
                "errors": self.checkpoint_errors,
                "last_error": self.last_checkpoint_error,
                "base_bytes": self._base_bytes,
                "log_bytes": log.bytes if log is not None else 0,
                "log_records": log.records if log is not None else 0,
                "durable_seq": self.durable_seq,
            },
            "queue": {
                "flush_size": self.config.flush_size,
                "flush_latency": self.config.flush_latency,
            },
            "metrics": self.metrics.to_dict(),
        }

    def close(self) -> dict:
        """Drain everything pending, stop the worker, reject further use."""
        with self._cond:
            if self._closed:
                return {"closed": True, "version": self._snapshot.version}
            self._closed = True
            self._cond.notify_all()
        self._worker.join(timeout=self.CLOSE_TIMEOUT)
        thread = self._checkpoint_thread
        if thread is not None:
            thread.join(timeout=self.CLOSE_TIMEOUT)
        if self._worker.is_alive():  # pragma: no cover - defensive
            raise ServiceError(
                f"session {self.name!r} worker failed to drain within "
                f"{self.CLOSE_TIMEOUT:g}s"
            )
        if self._log is not None:
            self._log.close()
        return {"closed": True, "version": self._snapshot.version}

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError(f"session {self.name!r} is closed")
