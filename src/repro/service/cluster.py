"""Fault-tolerant sharded front end over supervised worker processes.

:class:`ClusterService` presents the exact :class:`~repro.service.
protocol.ServiceProtocol` surface — ``handle(request) -> response`` and
``handle_line`` — so every existing transport (stdio pipe, TCP server)
serves a cluster unchanged.  Behind that surface:

* **Sharding.**  Session ids are consistent-hashed onto a fixed pool of
  worker *slots* (:class:`~repro.service.router.HashRing`); each slot is
  backed by one worker subprocess (``python -m repro.service.worker``)
  speaking tagged JSON lines over a pipe.  A crashed worker is replaced
  *in place*, so a session never migrates between slots.

* **Framing.**  A pipe line is ``TAG<tab>JSON``: the tag carries the
  correlation id (and a journaled op's ``seq``), the JSON is the client's
  request line or the worker's response line, verbatim.  The front end
  parses a request once to route it, and parses a response only when it
  needs a field of it (``update``, ``open``, ``close``, ``restore``);
  every other session op crosses it as text.

* **Supervision.**  A supervisor thread heartbeats every worker
  (``ping`` with a deadline).  ``heartbeat_misses`` consecutive misses,
  a dead process, or a broken pipe all mean the same thing: kill
  whatever is left and recover the slot.

* **Recovery.**  Every session is durable in the spool directory: a
  base file plus a log of the batches applied since, each logged before
  its flush is acknowledged (:mod:`repro.service.session`).  Responses
  carry the session's ``durable_seq`` and the front end forgets the ops
  at or below it.  On recovery the replacement worker re-opens each lost
  session from its base and log, and the front end replays what its
  journal still holds, in order — nothing acknowledged is lost.  A full
  journal *refuses* further updates (``OverloadedError``), never drops one.

* **Exactly-once visibility.**  Mutating ops are journaled with a
  ``seq`` *before* dispatch; a dispatcher whose worker dies mid-flight
  resumes from the replay outcome instead of re-sending, and
  client-supplied request ids are deduplicated so a client retry after
  a lost response observes its effect once.

* **Degradation.**  Each worker has a bounded in-flight budget; beyond
  it requests are rejected immediately with a typed ``OverloadedError``
  response — never silently queued without bound, never dropped.
  Failed attempts retry with capped exponential backoff up to
  ``retries`` times, then surface :class:`RetryExhaustedError` with the
  last failure chained.

Timeout policy: an unresponsive worker is indistinguishable from a hung
one, so a *mutating* request that exceeds ``request_timeout`` kills the
worker and triggers recovery — converting "maybe applied?" into the
crash path whose journal replay keeps exactly-once semantics.  Read-only
requests simply retry.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..datalog.errors import (
    OverloadedError,
    RetryExhaustedError,
    ServiceError,
    WorkerCrashError,
)
from ..robustness import faults as _faults
from .protocol import PROTOCOL_VERSION, MAX_LINE_BYTES, _error_response
from .router import Router, SessionRecord

__all__ = ["ClusterConfig", "ClusterService", "WorkerClient"]

#: Ops that mutate session state and therefore get a seq + journal entry.
_MUTATING_OPS = frozenset({"update"})

#: Ops the front end answers itself (they concern the cluster, not a shard).
_FRONTEND_OPS = frozenset({"ping", "shutdown"})


@dataclass
class ClusterConfig:
    """Tuning knobs for the sharded service (docs/SERVICE.md)."""

    #: Number of worker processes (= slots on the hash ring).
    workers: int = 2
    #: Spool directory for per-session bases and logs (created if missing).
    spool: str | None = None
    #: Seconds between supervisor heartbeat rounds.
    heartbeat_interval: float = 1.0
    #: Consecutive heartbeat misses before a worker is declared dead.
    heartbeat_misses: int = 3
    #: Seconds each heartbeat may take before counting as a miss.
    heartbeat_timeout: float = 5.0
    #: Per-request deadline (seconds); a mutating op past it kills the
    #: worker (see module docstring), a read-only op just fails the attempt.
    request_timeout: float = 60.0
    #: Attempts per request beyond the first.
    retries: int = 4
    #: Exponential backoff between attempts: base * 2**attempt, capped.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Max in-flight requests per worker before OverloadedError.
    queue_limit: int = 128
    #: Bounded per-session journal length (ops not yet durable, kept for
    #: replay; one more is refused).
    journal_limit: int = 1024
    #: Bounded per-session request-id dedup window.
    dedup_limit: int = 256
    #: Extra environment for worker subprocesses (tests set REPRO_BACKEND
    #: or REPRO_FAULT here).
    worker_env: dict = field(default_factory=dict)
    #: Virtual nodes per slot on the hash ring.
    vnodes: int = 64

    def validate(self) -> None:
        if self.workers < 1:
            raise ServiceError("a cluster needs at least one worker")
        if self.retries < 0:
            raise ServiceError("retries must be >= 0")
        if self.queue_limit < 1:
            raise ServiceError("queue_limit must be >= 1")


class _RequestTimeout(Exception):
    """Internal: a worker call missed its deadline (not a client error)."""


class WorkerClient:
    """One worker subprocess and the pipe protocol to it.

    Thread-safe: any number of dispatchers may call concurrently.
    Each request line is tagged with an internal correlation id (``c<N>``)
    that the worker echoes in front of its response — distinct from the
    client-visible ``id`` inside the JSON, which neither side touches —
    because worker lanes answer **out of order** across sessions.
    """

    _counter = itertools.count(1)

    def __init__(self, slot: str, env: dict | None = None):
        self.slot = slot
        self.generation = next(WorkerClient._counter)
        child_env = dict(os.environ)
        # The worker must import repro from this checkout even when the
        # front end runs from a script with its own sys.path tweaks.
        src_root = str(Path(__file__).resolve().parents[2])
        existing = child_env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            child_env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        if env:
            child_env.update(env)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker", "--label", slot],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env,
        )
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        #: correlation id -> [held lock, response line or exception]
        self._pending: dict[str, list] = {}
        self._dead = False
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-cluster-read-{slot}", daemon=True
        )
        self._reader.start()

    # -- liveness ----------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.poll() is None

    @property
    def inflight(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    # -- request/response --------------------------------------------------

    def call_line(
        self, payload: str, timeout: float, seq: int | None = None
    ) -> str:
        """Send one request line verbatim, wait for its response line.

        Raises :class:`WorkerCrashError` if the worker dies first and
        :class:`_RequestTimeout` past the deadline (the caller decides
        whether a timeout is fatal for this worker)."""
        correlation = f"c{next(WorkerClient._counter)}"
        tag = correlation if seq is None else f"{correlation} {seq}"
        # A held lock that the reader releases: what an Event does, without
        # building a condition variable per request.
        answered = threading.Lock()
        answered.acquire()
        waiter: list = [answered, None]
        with self._pending_lock:
            # A worker that died unnoticed fails the write or the wait.
            if self._dead:
                raise WorkerCrashError(
                    f"worker {self.slot!r} (pid {self.pid}) is not running"
                )
            self._pending[correlation] = waiter
        try:
            with self._write_lock:
                assert self.process.stdin is not None
                self.process.stdin.write(f"{tag}\t{payload}\n".encode())
                self.process.stdin.flush()
        except (OSError, ValueError) as exc:
            self._forget(correlation)
            self._mark_dead(f"pipe write failed: {exc}")
            raise WorkerCrashError(
                f"worker {self.slot!r} (pid {self.pid}) pipe broke mid-send"
            ) from exc
        if not answered.acquire(timeout=timeout):
            self._forget(correlation)
            raise _RequestTimeout(
                f"worker {self.slot!r} did not answer within {timeout}s"
            )
        outcome = waiter[1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def call(self, request: dict, timeout: float) -> dict:
        """:meth:`call_line` for a request the front end builds itself."""
        return json.loads(self.call_line(json.dumps(request), timeout))

    def _forget(self, correlation: str) -> None:
        with self._pending_lock:
            self._pending.pop(correlation, None)

    def _read_loop(self) -> None:
        stdout = self.process.stdout
        assert stdout is not None
        try:
            for line in stdout:
                # Anything that is not a tagged response matches no waiter.
                correlation, _, response = (
                    line.decode().rstrip("\n").partition("\t")
                )
                with self._pending_lock:
                    waiter = self._pending.pop(correlation, None)
                if waiter is not None:
                    waiter[1] = response
                    waiter[0].release()
        finally:
            self._mark_dead("stdout closed")

    def _mark_dead(self, why: str) -> None:
        with self._pending_lock:
            if self._dead:
                return
            self._dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        error = WorkerCrashError(
            f"worker {self.slot!r} (pid {self.pid}) died: {why}"
        )
        for waiter in pending:
            waiter[1] = error
            waiter[0].release()

    # -- teardown ----------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL immediately (liveness deadline / mutating timeout)."""
        with contextlib.suppress(OSError):
            self.process.kill()
        self._mark_dead("killed by supervisor")

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: close stdin (EOF drains sessions), then escalate
        SIGTERM -> SIGKILL if the worker does not exit in time."""
        with contextlib.suppress(OSError, ValueError):
            if self.process.stdin is not None:
                self.process.stdin.close()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(OSError):
                self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(OSError):
                    self.process.kill()
                self.process.wait()
        self._mark_dead("shut down")


class _Slot:
    """One ring slot's live state: the current client and a state flag."""

    def __init__(self, name: str, client: WorkerClient):
        self.name = name
        self.client = client
        self.state = "up"  # or "recovering"
        self.misses = 0


def _sum_into(total: dict, part: dict) -> None:
    """Add ``part``'s counters into ``total``, group by group (a session's
    ``metrics`` export nests them: ``service.renders`` ...); strings, lists
    and booleans are not counters and are left out."""
    for key, value in part.items():
        if isinstance(value, dict):
            _sum_into(total.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value


class ClusterService:
    """The sharded, supervised drop-in for :class:`ServiceProtocol`."""

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()
        self.config.validate()
        if self.config.spool is None:
            import tempfile

            self.config.spool = tempfile.mkdtemp(prefix="repro-spool-")
        os.makedirs(self.config.spool, exist_ok=True)
        slot_names = [f"w{i}" for i in range(self.config.workers)]
        self.router = Router(
            slot_names,
            vnodes=self.config.vnodes,
            journal_limit=self.config.journal_limit,
            dedup_limit=self.config.dedup_limit,
        )
        #: Guards slot state transitions; waiters block on the condition
        #: until a recovering slot comes back up.
        self._slots_cond = threading.Condition()
        self._slots: dict[str, _Slot] = {
            name: _Slot(name, self._spawn(name)) for name in slot_names
        }
        self.shutdown_requested = False
        self._closed = False
        #: Cluster-level counters, surfaced through ``stats``.
        self.counters = {
            "worker_restarts": 0,
            "sessions_recovered": 0,
            "replayed_ops": 0,
            "retries": 0,
            "heartbeat_misses": 0,
            "overloads": 0,
        }
        self._counters_lock = threading.Lock()
        self._stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-cluster-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- counters ----------------------------------------------------------

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._counters_lock:
            self.counters[counter] += by

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, slot_name: str) -> WorkerClient:
        return WorkerClient(slot_name, env=self.config.worker_env)

    def worker_pids(self) -> dict[str, int]:
        with self._slots_cond:
            return {name: slot.client.pid for name, slot in self._slots.items()}

    def _client_for(self, slot_name: str, deadline: float) -> WorkerClient:
        """The slot's current client, waiting out an in-progress recovery."""
        with self._slots_cond:
            slot = self._slots[slot_name]
            while slot.state != "up":
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    raise WorkerCrashError(
                        f"slot {slot_name!r} is still recovering"
                    )
                self._slots_cond.wait(timeout=remaining)
            return slot.client

    def _request_recovery(self, slot_name: str, failed: WorkerClient) -> None:
        """Transition ``slot`` to recovering and rebuild it, exactly once
        per failed client (concurrent dispatchers race to report the same
        death; the generation check deduplicates them)."""
        with self._slots_cond:
            slot = self._slots[slot_name]
            if self._closed:
                return
            if slot.state != "up" or slot.client.generation != failed.generation:
                return  # someone else is already on it / already replaced
            slot.state = "recovering"
            slot.misses = 0
        try:
            self._recover_slot(slot)
        finally:
            with self._slots_cond:
                slot.state = "up"
                self._slots_cond.notify_all()

    def _recover_slot(self, slot: _Slot) -> None:
        slot.client.kill()
        self._bump("worker_restarts")
        replacement = self._spawn(slot.name)
        slot.client = replacement
        for record in self.router.sessions_on(slot.name):
            try:
                self._recover_session(record, replacement)
            except Exception as exc:  # noqa: BLE001 - one broken session
                # must not strand its slot-mates on a dead worker.
                record.last_recovery_error = str(exc)

    def _recover_session(self, record: SessionRecord, client: WorkerClient) -> None:
        """Rebuild one session on ``client``: the session restores itself
        from its base and log, then the journal's tail is replayed, recording
        per-seq outcomes for any dispatcher that was mid-flight when the
        old worker died."""
        assert record.open_request is not None
        open_request = dict(record.open_request)
        open_request["restore_from"] = open_request["checkpoint_path"]
        response = client.call(open_request, timeout=self.config.request_timeout)
        if not response.get("ok"):
            # A base or log that fails validation must not keep the
            # session dead: open from scratch (which starts the spool
            # afresh) and replay what the journal still holds.
            open_request.pop("restore_from")
            response = client.call(
                open_request, timeout=self.config.request_timeout
            )
        if not response.get("ok"):
            raise WorkerCrashError(
                f"session {record.name!r} failed to re-open after recovery: "
                f"{response.get('error')}"
            )
        covered = response.get("durable_seq", 0)
        with record.journal_lock:
            # A dispatcher mid-flight on an op the log already held must
            # not send it again.
            record.replayed_through = max(record.replayed_through, covered)
        replayed = 0
        for seq, payload in record.journal_snapshot():
            if seq <= covered:
                continue
            outcome = client.call_line(
                payload, timeout=self.config.request_timeout, seq=seq
            )
            with record.journal_lock:
                record.outcomes[seq] = outcome
                record.replayed_through = max(record.replayed_through, seq)
            replayed += 1
        if replayed:
            flush = dict(op="flush", session=record.name)
            client.call(flush, timeout=self.config.request_timeout)
        self._bump("sessions_recovered")
        self._bump("replayed_ops", replayed)

    # -- checkpoint spool --------------------------------------------------

    def _checkpoint_path(self, session: str) -> str:
        # Session names are client-supplied; quote them into safe filenames.
        import urllib.parse

        safe = urllib.parse.quote(session, safe="")
        return os.path.join(self.config.spool, f"{safe}.ckpt")

    def _drop_spool(self, session: str) -> None:
        for suffix in ("", ".log"):
            with contextlib.suppress(OSError):
                os.remove(self._checkpoint_path(session) + suffix)

    # -- supervision -------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval):
            with self._slots_cond:
                snapshot = [
                    (slot, slot.client)
                    for slot in self._slots.values()
                    if slot.state == "up"
                ]
            for slot, client in snapshot:
                if self._stop.is_set():
                    return
                miss = False
                if not client.alive:
                    miss = True
                    slot.misses = self.config.heartbeat_misses  # dead is dead
                else:
                    try:
                        pong = client.call(
                            {"op": "ping"}, timeout=self.config.heartbeat_timeout
                        )
                        miss = not pong.get("ok")
                    except (_RequestTimeout, WorkerCrashError):
                        miss = True
                if miss:
                    slot.misses += 1
                    self._bump("heartbeat_misses")
                    if slot.misses >= self.config.heartbeat_misses:
                        self._request_recovery(slot.name, client)
                else:
                    slot.misses = 0

    # -- dispatch ----------------------------------------------------------

    def handle_line(self, line: str) -> str | None:
        """Line transport shim, byte-compatible with the single-process
        protocol (transports call this polymorphically)."""
        if len(line) > MAX_LINE_BYTES:
            return json.dumps(
                _error_response(
                    None,
                    "ParseError",
                    f"request line exceeds {MAX_LINE_BYTES} bytes",
                )
            )
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except ValueError as exc:
            return json.dumps(
                _error_response(None, "ParseError", f"bad JSON: {exc}")
            )
        response = self._handle(request, line)
        if isinstance(response, str):
            return response  # a worker's line, forwarded as it came
        return json.dumps(response, sort_keys=True)

    def handle(self, request) -> dict:
        response = self._handle(request, None)
        return json.loads(response) if isinstance(response, str) else response

    def _handle(self, request, line: str | None) -> dict | str:
        """Answer one parsed request.  ``line`` is its source text when it
        came off a transport; a worker then gets that text, not a
        re-encoding of ``request``."""
        if not isinstance(request, dict):
            return _error_response(None, "ServiceError", "request must be an object")
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "shutdown":
                self.shutdown_requested = True
                return {"id": request_id, "ok": True, "closing": True}
            if op == "ping":
                return {
                    "id": request_id,
                    "ok": True,
                    "pong": True,
                    "sessions": self.router.names(),
                }
            if op == "stats" and "session" not in request:
                return self._cluster_stats(request_id)
            if not isinstance(op, str):
                raise ServiceError(f"unknown op {op!r}")
            return self._route(request, line)
        except Exception as exc:  # noqa: BLE001 - see ServiceProtocol.handle
            # Typed cluster errors (overload, crash, retries exhausted) and
            # anything unforeseen alike become a structured response.
            return _error_response(request_id, type(exc).__name__, str(exc))

    def _route(self, request: dict, line: str | None = None) -> dict | str:
        session = request.get("session", "default")
        if not isinstance(session, str):
            raise ServiceError("'session' must be a string")
        op = request["op"]
        record = self.router.record(session)
        request_id = request.get("id")
        payload = line if line is not None else json.dumps(request)

        if op in _MUTATING_OPS:
            with record.lock:
                cached = record.cached_response(request_id)
                if cached is not None:
                    return dict(cached)
                try:
                    seq = record.journal_op(payload)
                except OverloadedError:
                    self._bump("overloads")
                    raise
                response = json.loads(
                    self._dispatch(record, payload, seq=seq, mutating=True)
                )
                record.prune_journal(response.get("durable_seq"))
                response["id"] = request_id
                response["seq"] = seq
                record.cache_response(request_id, response)
                return response

        if op == "open":
            wire = dict(request, session=session)
            wire.setdefault("checkpoint_path", self._checkpoint_path(session))
            response = json.loads(self._dispatch(record, json.dumps(wire)))
            if response.get("ok"):
                wire.pop("id", None)
                with record.journal_lock:
                    record.open_request = wire
            return response

        if op == "close":
            response = json.loads(self._dispatch(record, payload))
            if response.get("ok"):
                self.router.drop(session)
                self._drop_spool(session)
            return response

        if op == "restore":
            # A restore rewrites the session's whole state, and the session
            # rebases its spool onto it before answering: the journal
            # before it is obsolete, which the answer's ``durable_seq`` says.
            with record.lock:
                response = json.loads(self._dispatch(record, payload))
                record.prune_journal(response.get("durable_seq"))
                return response

        # Nothing here needs a field of the answer: the worker echoes the
        # client's ``id`` itself, so its line goes back unparsed.
        return self._dispatch(record, payload)

    def _dispatch(
        self,
        record: SessionRecord,
        payload: str,
        seq: int | None = None,
        mutating: bool = False,
    ) -> str:
        """Send one request line to the session's slot, with retry,
        backoff, overload rejection, and crash-replay integration; returns
        the worker's response line."""
        attempts = self.config.retries + 1
        last_exc: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self._bump("retries")
                delay = min(
                    self.config.backoff_base * (2 ** (attempt - 1)),
                    self.config.backoff_cap,
                )
                time.sleep(delay)
            # A recovery replay may already have applied this op; resume
            # from its recorded outcome instead of re-sending.
            if seq is not None:
                with record.journal_lock:
                    if seq <= record.replayed_through:
                        outcome = record.outcomes.pop(seq, None)
                        if outcome is not None:
                            return outcome
                        return json.dumps(
                            {"ok": True, "replayed": True, "seq": seq}
                        )
            deadline = time.monotonic() + self.config.request_timeout
            try:
                client = self._client_for(record.slot, deadline)
            except WorkerCrashError as exc:
                last_exc = exc
                continue
            if client.inflight >= self.config.queue_limit:
                self._bump("overloads")
                raise OverloadedError(
                    f"worker {record.slot!r} has {client.inflight} requests "
                    f"in flight (limit {self.config.queue_limit}); "
                    "back off and resend"
                )
            try:
                if _faults.ACTIVE is not None:
                    _faults.fire("cluster.dispatch")
                return client.call_line(
                    payload, timeout=self.config.request_timeout, seq=seq
                )
            except _faults.FaultInjected as exc:
                last_exc = exc  # injected dispatch failure: retryable
            except WorkerCrashError as exc:
                last_exc = exc
                self._request_recovery(record.slot, client)
            except _RequestTimeout as exc:
                last_exc = exc
                if mutating:
                    # "Maybe applied" is not an answer for a mutating op:
                    # convert the hang into a crash so journal replay
                    # decides, exactly once.
                    client.kill()
                    self._request_recovery(record.slot, client)
                # Read-only timeouts just burn an attempt.
        raise RetryExhaustedError(
            f"a request for session {record.name!r} failed after "
            f"{attempts} attempts"
        ) from last_exc

    # -- stats -------------------------------------------------------------

    def _cluster_stats(self, request_id) -> dict:
        """Aggregate: protocol-compatible with the single-process listing
        (``protocol``/``sessions``) plus cluster counters and per-worker
        detail.  Per-session solver metrics are merged numerically,
        ``solver_config`` as the one dict they agree on or the distinct ones."""
        with self._slots_cond:
            slots = {name: slot for name, slot in self._slots.items()}
        workers = {}
        merged_metrics: dict = {}
        configs: list[dict] = []
        for name, slot in sorted(slots.items()):
            client = slot.client
            info = {
                "pid": client.pid,
                "alive": client.alive,
                "state": slot.state,
                "inflight": client.inflight,
                "sessions": [],
            }
            if client.alive and slot.state == "up":
                with contextlib.suppress(Exception):
                    pong = client.call(
                        {"op": "stats"}, timeout=self.config.heartbeat_timeout
                    )
                    if pong.get("ok"):
                        info["sessions"] = pong.get("sessions", [])
                for session in info["sessions"]:
                    with contextlib.suppress(Exception):
                        detail = client.call(
                            {"op": "stats", "session": session},
                            timeout=self.config.heartbeat_timeout,
                        )
                        if detail.get("ok"):
                            if detail["solver_config"] not in configs:
                                configs.append(detail["solver_config"])
                            _sum_into(
                                merged_metrics, detail.get("metrics") or {}
                            )
            workers[name] = info
        with self._counters_lock:
            counters = dict(self.counters)
        return {
            "id": request_id,
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "sessions": self.router.names(),
            "cluster": {
                "workers": workers,
                "counters": counters,
                "spool": self.config.spool,
            },
            "metrics": merged_metrics,
            "solver_config": configs[0] if len(configs) == 1 else configs,
        }

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Stop supervision and shut every worker down gracefully
        (stdin EOF drains sessions; SIGTERM/SIGKILL only on stragglers)."""
        with self._slots_cond:
            if self._closed:
                return
            self._closed = True
            self._slots_cond.notify_all()
        self._stop.set()
        self._supervisor.join(timeout=10.0)
        with self._slots_cond:
            clients = [slot.client for slot in self._slots.values()]
        for client in clients:
            client.shutdown()

    def terminate_workers(self) -> None:
        """Forward a termination signal: SIGTERM every worker (they drain
        and exit); used by the CLI's signal handler so killing the front
        end takes the whole tree down."""
        with self._slots_cond:
            clients = [slot.client for slot in self._slots.values()]
        for client in clients:
            with contextlib.suppress(OSError):
                client.process.terminate()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
