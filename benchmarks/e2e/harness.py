"""One pass of a workload: a closed loop of cycles against a ladder of rungs.

A *rung* is the system entered at one public boundary.  An untraced pass has
a single rung, the product path (protocol in process, or TCP to a spawned
server tree).  A traced pass replays every cycle, with identical inputs,
through one twin rung per boundary below it:

====================  ==================================================
``cluster``           TCP -> ``repro serve --workers 2``      (tcp only)
``server``            TCP -> single-process ``repro serve``   (tcp only)
``protocol``  (L0)    ``ServiceProtocol.handle_line``
``session``   (L1)    ``Session.update/flush/query/snapshot_info/stats``
``parts``     (L2)    ``CoalescingQueue.put/drain``, ``GuardedSolver.update``,
                      ``take_snapshot``, ``Snapshot.rows``, ``Snapshot.digest``
``engine``    (L3)    bare ``Solver.update`` (fed L2's drained batches)
====================  ==================================================

Everything timed is a span ``[name, cycle, parent, start, end]``; a rung's
self time is its spans minus the next rung's (layers.py).  The program is
only ever entered through public functions, and only receives the edits the
seeded stream generated.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import tempfile
import time
from pathlib import Path
from time import perf_counter

from repro.analyses import ANALYSES
from repro.changes import editor_for
from repro.changes.soak import engine_gauges, reference_digest
from repro.corpus import load_subject
from repro.engines.checkpoint import save_checkpoint
from repro.javalite.ast import ConstAssign, If, While
from repro.metrics import SolverMetrics
from repro.robustness import GuardedSolver
from repro.service import CoalescingQueue, Session, SessionConfig, take_snapshot
from repro.service.session import ENGINES

from servers import InProcessServer, ServerTree
from workloads import Workload

#: Rows one ``query`` asks for (a screenful of diagnostics).
QUERY_LIMIT = 50


class Tracer:
    """Spans of one pass, kept in memory; ``parent`` is a span index."""

    def __init__(self):
        self.spans: list[list] = []
        self.cycle = -1  # set-up and tear-down spans carry cycle -1

    def begin(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, self.cycle, parent, perf_counter(), 0.0])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][4] = perf_counter()

    def mark(self, name: str, parent: int) -> None:
        """A span from the start of ``parent`` until now."""
        self.spans.append(
            [name, self.cycle, parent, self.spans[parent][3], perf_counter()]
        )


class EditSource:
    """The client side of one session: seeded source edits over a private
    copy of the subject, and a mirror of the fact state they have produced.

    Both streams are *sweeps*: a round visits every eligible statement of the
    subject once, in a seeded order with seeded values.  Every seed then
    touches the same statements, so a percentile over the cycles describes
    the program and not the draw (README.md, "Edit streams").

    ``literals``   retype the next integer literal of the round.
    ``structural`` units of eight edits: delete two simple statements of the
                   round, restore the two that the previous unit deleted, and
                   retype two literals twice each (the second overtype lands
                   on a key the queue already holds).
    """

    def __init__(self, workload: Workload, seed: int):
        # load_subject is memoized and the editor edits in place.
        program = copy.deepcopy(load_subject(workload.subject))
        self.instance = ANALYSES[workload.analysis](program)
        self.facts = {p: set(rows) for p, rows in self.instance.facts.items()}
        self.editor = editor_for(program, workload.analysis)
        self.edits = 0
        self.fact_ops = 0
        self._rng = random.Random(seed)
        statements = [s for m in program.methods() for s in m.statements()]
        self._literals = [s.label for s in statements if isinstance(s, ConstAssign)]
        #: Never a block header (its body would detach) and never a literal
        #: (a retype must not hit a deleted statement).
        self._simple = [
            s.label for s in statements
            if not isinstance(s, (If, While, ConstAssign))
        ]
        self._edits = {"literals": self._retypes, "structural": self._structural}[
            workload.stream
        ]()

    def _rounds(self, labels: list[str], keep_last=()):
        """``labels`` forever, each round in a fresh seeded order; labels in
        ``keep_last`` (still deleted when the round starts) go to its end."""
        while True:
            order = self._rng.sample(labels, len(labels))
            order.sort(key=lambda label: label in keep_last)
            yield from order

    def _retype(self, label: str):
        return self.editor.replace_literal(label, self._rng.randrange(-64, 65))

    def _retypes(self):
        for label in self._rounds(self._literals):
            yield self._retype(label)

    def _structural(self):
        deleted: list[str] = []  # updated in place: _rounds watches it
        statements = self._rounds(self._simple, keep_last=deleted)
        literals = self._rounds(self._literals)
        while True:
            restore = list(deleted)
            deleted[:] = [next(statements), next(statements)]
            for label in deleted:
                yield self.editor.delete_statement(label)
            for label in restore:
                yield self.editor.restore_statement(label)
            for label in (next(literals), next(literals)):
                yield self._retype(label)
                yield self._retype(label)

    def step(self):
        """Apply the next source edit; returns its fact diff."""
        return next(self._edits)

    def commit(self, changes) -> None:
        for change in changes:
            change.apply_to(self.facts)
            self.edits += 1
            self.fact_ops += sum(len(r) for r in change.insertions.values())
            self.fact_ops += sum(len(r) for r in change.deletions.values())

    def reference(self) -> str:
        """Digest of a from-scratch semi-naive solve of the mirrored facts."""
        return reference_digest(self.instance.program, self.facts)


def _wire(rows_by_pred) -> dict:
    return {pred: sorted(map(list, rows)) for pred, rows in rows_by_pred.items()}


class WireRung:
    """JSON lines against anything with ``roundtrip(line) -> line``."""

    def __init__(self, prefix: str, workload: Workload, tracer: Tracer,
                 primary: str, make_server):
        self.prefix = prefix
        self.workload = workload
        self.tracer = tracer
        self.primary = primary
        self.make_server = make_server
        self.server = None
        self.names: list[str] = []
        self.versions: list[int] = []
        self.requests = 0
        self.failed = 0
        self.errors: list[str] = []
        self.response_bytes = {"query": 0}

    def call(self, kind: str, request: dict, parent: int = -1) -> dict:
        tracer = self.tracer
        outer = tracer.begin(f"{self.prefix}.{kind}", parent)
        line = json.dumps(request)
        inner = tracer.begin(f"{self.prefix}.roundtrip", outer)
        reply = self.server.roundtrip(line)
        tracer.end(inner)
        response = json.loads(reply)
        tracer.end(outer)
        self.requests += 1
        flush = response.get("flush")
        if not response.get("ok") or (flush is not None and not flush.get("ok")):
            self.failed += 1
            self.errors.append(f"{kind} failed: {reply.strip()[:300]}")
        if kind in self.response_bytes:
            self.response_bytes[kind] += len(reply)
        return response

    def open(self, slot: int) -> None:
        if self.server is None:
            self.server = self.make_server()
            self.names = self.server.session_names(self.workload.sessions)
        w = self.workload
        request = {
            "op": "open", "session": self.names[slot], "analysis": w.analysis,
            "subject": w.subject, "engine": w.engine, **w.open_fields,
        }
        response = self.call("open", request)
        self.versions.append(response.get("snapshot_version", 0))

    def update(self, slot: int, change, flush: bool, parent: int) -> None:
        request = {
            "op": "update", "session": self.names[slot],
            "insert": _wire(change.insertions), "delete": _wire(change.deletions),
        }
        if flush:
            request["flush"] = True
        response = self.call("update", request, parent)
        outcome = response.get("flush")
        if outcome and outcome.get("ok") and response.get("pending"):
            # The version rises by exactly one per non-empty flush (edits
            # that cancel out in the queue leave nothing pending, and the
            # flush then repeats the outcome of an earlier batch).
            self.versions[slot] += 1
            if outcome.get("version") != self.versions[slot]:
                self.errors.append(
                    f"flush published version {outcome.get('version')}, "
                    f"expected {self.versions[slot]}"
                )

    def query(self, slot: int, parent: int) -> None:
        request = {
            "op": "query", "session": self.names[slot],
            "predicate": self.primary, "limit": QUERY_LIMIT,
        }
        response = self.call("query", request, parent)
        if response.get("ok") and response.get("version") != self.versions[slot]:
            self.errors.append(
                f"query read version {response.get('version')}, "
                f"expected {self.versions[slot]}"
            )

    def snapshot(self, slot: int, parent: int = -1) -> dict:
        return self.call(
            "snapshot", {"op": "snapshot", "session": self.names[slot]}, parent
        )

    def stats(self, slot: int, parent: int = -1) -> dict:
        return self.call(
            "stats", {"op": "stats", "session": self.names[slot]}, parent
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


class SessionRung:
    """L1: the ``Session`` object, without the protocol around it."""

    prefix = "session"

    def __init__(self, workload: Workload, tracer: Tracer, primary: str):
        self.workload = workload
        self.tracer = tracer
        self.primary = primary
        self.sessions: list[Session] = []

    def open(self, slot: int) -> None:
        w = self.workload
        config = SessionConfig(
            analysis=w.analysis, subject=w.subject, engine=w.engine,
            **w.open_fields,
        )
        self.sessions.append(Session(f"twin{slot}", config))

    def update(self, slot: int, change, flush: bool, parent: int) -> None:
        tracer, session = self.tracer, self.sessions[slot]
        span = tracer.begin("session.update", parent)
        session.update(insertions=change.insertions, deletions=change.deletions)
        tracer.end(span)
        if flush:
            span = tracer.begin("session.flush", parent)
            session.flush()
            tracer.end(span)

    def query(self, slot: int, parent: int) -> None:
        span = self.tracer.begin("session.query", parent)
        self.sessions[slot].query(self.primary, limit=QUERY_LIMIT)
        self.tracer.end(span)

    def snapshot(self, slot: int, parent: int = -1) -> dict:
        span = self.tracer.begin("session.snapshot", parent)
        info = self.sessions[slot].snapshot_info()
        self.tracer.end(span)
        return info

    def stats(self, slot: int, parent: int = -1) -> dict:
        span = self.tracer.begin("session.stats", parent)
        stats = self.sessions[slot].stats()
        self.tracer.end(span)
        return stats

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions = []


class _Parts:
    """The pieces one session is made of, wired by hand (one slot of L2),
    and the bare solver of L3 beside them."""

    def __init__(self, workload: Workload, tracer: Tracer):
        config = SessionConfig(
            analysis=workload.analysis, subject=workload.subject,
            engine=workload.engine, **workload.open_fields,
        )
        engine_cls = ENGINES[workload.engine]
        self.instance = ANALYSES[workload.analysis](load_subject(workload.subject))
        self.guarded = GuardedSolver(
            self.instance.make_solver(engine_cls, solve=False), fallback=False
        )
        self.guarded.solve()
        self.bare = self.instance.make_solver(engine_cls, solve=False)
        span = tracer.begin("engine.solve")
        self.bare.solve()
        tracer.end(span)
        #: ``impact_seconds`` so far is the index construction, not updates.
        self.impact_seconds_at_solve = self.bare.metrics.impact_seconds
        #: What the guarded solver's EDB holds: the session answers the
        #: queue's membership question from its solver's staged facts.
        self.applied = {
            pred: set(rows)
            for pred, rows in self.instance.facts.items()
            if pred in self.guarded.edb
        }
        self.queue = CoalescingQueue(
            config.flush_size, config.flush_latency, membership=self._present
        )
        self.snapshot = take_snapshot(self.guarded, 1)
        self.batches = 0
        self.keys = 0
        #: (insertions, deletions) of every batch, for the counting replay.
        self.log: list[tuple[dict, dict]] = []

    def _present(self, pred: str, row: tuple):
        rows = self.applied.get(pred)
        return None if rows is None else row in rows


class PartsRung:
    """L2 and L3: queue, guard, snapshot and engine called one by one."""

    prefix = "parts"

    def __init__(self, workload: Workload, tracer: Tracer, primary: str,
                 out_dir: Path):
        self.workload = workload
        self.tracer = tracer
        self.primary = primary
        self.out_dir = out_dir
        #: Save a checkpoint of the bare solver every this many batches
        #: (run_pass copies the cadence the cluster gave its sessions).
        self.checkpoint_every: int | None = None
        self.slots: list[_Parts] = []
        #: Impact of every engine update, in span order.
        self.impacts: list[int] = []
        self.checkpoint_bytes = 0
        self._tmp: tempfile.TemporaryDirectory | None = None

    def open(self, slot: int) -> None:
        self.slots.append(_Parts(self.workload, self.tracer))

    def update(self, slot: int, change, flush: bool, parent: int) -> None:
        tracer, parts = self.tracer, self.slots[slot]
        span = tracer.begin("queue.put", parent)
        parts.queue.put(change.insertions, change.deletions)
        tracer.end(span)
        if not flush or parts.queue.empty:
            return
        span = tracer.begin("queue.drain", parent)
        batch = parts.queue.drain()
        tracer.end(span)
        span = tracer.begin("guard.update", parent)
        parts.guarded.update(insertions=batch.insertions, deletions=batch.deletions)
        tracer.end(span)
        span = tracer.begin("snapshot.take", parent)
        parts.snapshot = take_snapshot(parts.guarded, parts.snapshot.version + 1)
        tracer.end(span)
        span = tracer.begin("engine.update", parent)
        stats = parts.bare.update(
            insertions=batch.insertions, deletions=batch.deletions
        )
        tracer.end(span)
        self.impacts.append(stats.impact)
        parts.log.append((batch.insertions, batch.deletions))
        parts.batches += 1
        parts.keys += batch.size
        for pred, rows in batch.deletions.items():
            parts.applied.get(pred, set()).difference_update(rows)
        for pred, rows in batch.insertions.items():
            parts.applied.get(pred, set()).update(rows)
        if self.checkpoint_every and parts.batches % self.checkpoint_every == 0:
            if self._tmp is None:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                self._tmp = tempfile.TemporaryDirectory(
                    prefix="ckpt-", dir=self.out_dir
                )
            span = tracer.begin("checkpoint.save", parent)
            self.checkpoint_bytes = save_checkpoint(
                parts.bare, Path(self._tmp.name) / f"twin{slot}.ckpt"
            )
            tracer.end(span)

    def query(self, slot: int, parent: int) -> None:
        snapshot = self.slots[slot].snapshot
        span = self.tracer.begin("snapshot.rows", parent)
        snapshot.rows(self.primary, QUERY_LIMIT)
        self.tracer.end(span)
        len(snapshot.query(self.primary))

    def snapshot(self, slot: int, parent: int = -1) -> dict:
        snapshot = self.slots[slot].snapshot
        span = self.tracer.begin("snapshot.digest", parent)
        digest = snapshot.digest()
        self.tracer.end(span)
        return {"version": snapshot.version, "digest": digest,
                "counts": snapshot.counts()}

    def stats(self, slot: int, parent: int = -1) -> dict:
        return {}

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def play(rung, workload: Workload, slot: int, index: int, changes, parent: int,
         tracer: Tracer, visible: bool = False) -> None:
    """One cycle against one rung: edits, reads, and the periodic ops."""
    last = workload.edits_per_cycle - 1
    for number, change in enumerate(changes):
        rung.update(slot, change, number == last, parent)
    for number in range(workload.queries_per_cycle):
        rung.query(slot, parent)
        if visible and number == 0:
            tracer.mark("e2e.visible", parent)
    if (index + 1) % workload.snapshot_every == 0:
        rung.snapshot(slot, parent)
    if workload.stats_per_cycle:
        rung.stats(slot, parent)


def _stepping(source: EditSource, count: int, tracer: Tracer, parent: int,
              changes: list):
    """Make the cycle's source edits one by one, inside the timed cycle,
    and keep their fact diffs for the twins."""
    for _ in range(count):
        span = tracer.begin("changes.step", parent)
        change = source.step()
        tracer.end(span)
        changes.append(change)
        yield change


def build_rungs(workload: Workload, tracer: Tracer, traced: bool,
                repo_root: Path, out_dir: Path, primary: str) -> list:
    """The product path first, then (traced) one twin per boundary."""
    rungs = []
    if workload.transport == "tcp":
        rungs.append(WireRung(
            "cluster", workload, tracer, primary,
            lambda: ServerTree(repo_root, out_dir, workers=2),
        ))
        if traced:
            rungs.append(WireRung(
                "server", workload, tracer, primary,
                lambda: ServerTree(repo_root, out_dir, workers=None),
            ))
    if workload.transport == "inproc" or traced:
        rungs.append(
            WireRung("protocol", workload, tracer, primary, InProcessServer)
        )
    if traced:
        rungs.append(SessionRung(workload, tracer, primary))
        rungs.append(PartsRung(workload, tracer, primary, out_dir))
    return rungs


def run_pass(workload: Workload, seed: int, traced: bool, repo_root: Path,
             out_dir: Path, cycles: int | None = None) -> dict:
    """Fresh servers and sessions, every cycle once, tear-down; returns the
    spans and what the correctness checks need."""
    if cycles is not None:
        workload = dataclasses.replace(workload, cycles=cycles)
    tracer = Tracer()
    sources = [EditSource(workload, seed + k) for k in range(workload.sessions)]
    primary = sources[0].instance.primary
    rungs = build_rungs(workload, tracer, traced, repo_root, out_dir, primary)
    top = rungs[0]
    parts = rungs[-1] if traced else None
    result: dict = {"parts": parts}
    try:
        for rung in rungs:
            span = tracer.begin(f"{rung.prefix}.setup")
            for slot in range(workload.sessions):
                rung.open(slot)
            tracer.end(span)
        if top.failed:
            raise RuntimeError(f"open failed: {top.errors}")
        if parts is not None and workload.transport == "tcp":
            # The cluster front end injects its --checkpoint-every default
            # into every open; the twin saves at the same cadence.
            parts.checkpoint_every = top.stats(0)["checkpoint"]["every"]

        for index in range(workload.cycles):
            slot = index % workload.sessions
            source = sources[slot]
            tracer.cycle = index
            changes: list = []
            root = tracer.begin("e2e.cycle")
            edits = _stepping(source, workload.edits_per_cycle, tracer, root, changes)
            play(top, workload, slot, index, edits, root, tracer, visible=True)
            tracer.end(root)
            for rung in rungs[1:]:
                twin = tracer.begin(f"{rung.prefix}.cycle")
                play(rung, workload, slot, index, changes, twin, tracer)
                if rung.prefix == "server":
                    span = tracer.begin("server.ping", twin)
                    rung.server.roundtrip('{"op": "ping"}')
                    tracer.end(span)
                tracer.end(twin)
            source.commit(changes)
        tracer.cycle = -1

        result["digests"] = [
            [rung.snapshot(slot).get("digest") for slot in range(workload.sessions)]
            for rung in rungs
        ]
        result["rss_mb"] = top.server.rss_mb()
        result["final_stats"] = [
            _settled_stats(top, slot) for slot in range(workload.sessions)
        ]
        if workload.transport == "tcp":
            result["cluster_stats"] = top.call("stats", {"op": "stats"})
    finally:
        for rung in rungs:
            rung.close()
    wire = [r for r in rungs if isinstance(r, WireRung)]
    result.update(
        spans=tracer.spans,
        sources=sources,
        requests=sum(r.requests for r in wire),
        failed=sum(r.failed for r in wire),
        errors=[e for r in wire for e in r.errors],
        query_bytes=top.response_bytes["query"],
        rungs=[r.prefix for r in rungs],
    )
    return result


def _settled_stats(rung: WireRung, slot: int) -> dict:
    """The session's ``stats`` once the background checkpointer has caught
    up with the applied batches, so the checkpoint count repeats exactly."""
    request = json.dumps({"op": "stats", "session": rung.names[slot]})
    deadline = perf_counter() + 5.0
    while True:
        stats = json.loads(rung.server.roundtrip(request))
        checkpoint = stats["checkpoint"]
        due = checkpoint["every"] and (
            stats["metrics"]["service"]["batches_applied"] // checkpoint["every"]
        )
        if not due or checkpoint["written"] >= due or perf_counter() > deadline:
            return stats
        time.sleep(0.02)


def count_replay(workload: Workload, log: list[tuple[dict, dict]]) -> dict:
    """Replay the drained batches on one more bare solver with counters on
    (profiling costs timers, so no timed twin may carry it); returns the
    counter deltas over the updates and the end-of-pass gauges."""
    instance = ANALYSES[workload.analysis](load_subject(workload.subject))
    metrics = SolverMetrics(enabled=True)
    solver = instance.make_solver(ENGINES[workload.engine], metrics=metrics)
    names = ("join_probes", "support_updates", "tuples_derived", "rules_fired",
             "replans_triggered", "strata_skipped")
    before = {name: getattr(metrics, name) for name in names}
    for insertions, deletions in log:
        solver.update(insertions=insertions, deletions=deletions)
    counts = {name: getattr(metrics, name) - before[name] for name in names}
    gauges = engine_gauges(solver)
    counts["state_size"] = gauges["state_size"]
    counts["timeline_entries"] = gauges.get("timeline_entries", 0)
    return counts
