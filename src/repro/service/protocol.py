"""The JSON-lines request/response protocol over a session manager.

One request per line, one response per line, in order.  Every request is a
JSON object with an ``op`` field and an optional ``id`` echoed back in the
response; responses carry ``"ok": true`` plus the op's result fields, or
``"ok": false`` with an ``error`` object.  The full reference with an
example transcript lives in docs/SERVICE.md.

Operations::

    open     {session?, analysis, subject, engine?, scale?, seed?, ...}
    update   {session?, insert?, delete?, flush?, seq?}
    flush    {session?}
    query    {session?, predicate, limit?, flush?}
    explain  {session?, predicate, row, depth?, max_nodes?, flush?}
    whynot   {session?, predicate, row, max_rules?, flush?}
    rollback {session?, predicate, row, max_suggestions?, max_edits?}
    snapshot {session?, views?}
    save     {session?, path}
    restore  {session?, path}
    stats    {session?}           # no session -> server-wide listing
    ping     {}                   # liveness probe (cluster heartbeats)
    close    {session?}
    shutdown {}                   # stop the server after responding

The protocol object is shared by every transport (stdio, every TCP
connection) and is thread-safe: the manager locks its session table, and
sessions serialize their own state.

Malformed input — bad JSON, invalid UTF-8, oversized lines, wrong field
types — always yields a structured error *response*, never an unhandled
exception: a fuzzing client must not be able to kill a connection thread
or a cluster worker (tests/unit/service/test_protocol_fuzz.py).
"""

from __future__ import annotations

import json
import threading

from ..datalog.errors import DatalogError, ServiceError
from ..robustness import faults as _faults
from .session import Session, SessionConfig

#: Protocol schema version, echoed by ``open`` and ``stats``.
PROTOCOL_VERSION = 1

#: ``open`` request fields forwarded into :class:`SessionConfig`.
_CONFIG_FIELDS = (
    "analysis",
    "subject",
    "engine",
    "scale",
    "seed",
    "fallback",
    "flush_size",
    "flush_latency",
    "deadline",
    "self_check",
    "profile",
    "checkpoint_path",
    "restore_from",
)

#: Hard cap on one request line; beyond it the line is rejected with a
#: structured error before any parsing (a malicious or broken client must
#: not make the server buffer or parse an unbounded payload).
MAX_LINE_BYTES = 8 * 1024 * 1024


class SessionManager:
    """The server's session table; thread-safe."""

    def __init__(self):
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    def open(self, name: str, config: SessionConfig) -> Session:
        with self._lock:
            existing = self._sessions.get(name)
            if existing is not None and not existing.closed:
                raise ServiceError(f"session {name!r} is already open")
            session = Session(name, config)
            self._sessions[name] = session
            return session

    def get(self, name: str) -> Session:
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise ServiceError(
                f"unknown session {name!r}; open it first"
            )
        return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def close(self, name: str) -> dict:
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is None:
            raise ServiceError(f"unknown session {name!r}; open it first")
        return session.close()

    def close_all(self) -> int:
        """Drain and close every session (graceful shutdown); returns the
        number of sessions closed."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        closed = 0
        for session in sessions:
            if not session.closed:
                session.close()
                closed += 1
        return closed


def _rows_mapping(raw, what: str) -> dict[str, list[tuple]] | None:
    """Validate an ``insert``/``delete`` body: pred -> list of rows."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ServiceError(f"{what} must be an object of pred -> rows")
    mapping: dict[str, list[tuple]] = {}
    for pred, rows in raw.items():
        if not isinstance(rows, list):
            raise ServiceError(f"{what}[{pred!r}] must be a list of rows")
        bucket = []
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise ServiceError(
                    f"{what}[{pred!r}] rows must be arrays, got {row!r}"
                )
            for value in row:
                # Only JSON scalars are valid fact constants; nested
                # arrays/objects would be unhashable downstream, and the
                # queue must never see a partially enqueued request.
                if value is not None and not isinstance(
                    value, (str, int, float, bool)
                ):
                    raise ServiceError(
                        f"{what}[{pred!r}] row values must be scalars, "
                        f"got {value!r}"
                    )
            bucket.append(tuple(row))
        mapping[pred] = bucket
    return mapping


def _pred_and_row(request, op: str) -> tuple[str, tuple]:
    """Validate the ``predicate``/``row`` pair of the provenance ops."""
    pred = request.get("predicate")
    if not isinstance(pred, str):
        raise ServiceError(f"{op} requires a 'predicate' string")
    row = request.get("row")
    if not isinstance(row, list):
        raise ServiceError(f"{op} requires a 'row' array")
    for value in row:
        # Same scalar discipline as update bodies; None additionally
        # serves whynot as an "any value here" placeholder.
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise ServiceError(
                f"{op} row values must be scalars, got {value!r}"
            )
    return pred, tuple(row)


def _bounded_int(
    request, key: str, default: int | None, lo: int, hi: int | None = None
) -> int | None:
    """An optional integer request field, range-checked (``hi=None``:
    bounded below only)."""
    value = request.get(key)
    if value is None:
        return default
    if not isinstance(value, int) or isinstance(value, bool):
        raise ServiceError(f"'{key}' must be an integer")
    if hi is None:
        if value < lo:
            raise ServiceError(f"'{key}' must be at least {lo}")
    elif not lo <= value <= hi:
        raise ServiceError(f"'{key}' must be between {lo} and {hi}")
    return value


class ServiceProtocol:
    """Dispatches parsed requests against a :class:`SessionManager`."""

    def __init__(self, manager: SessionManager | None = None):
        self.manager = manager if manager is not None else SessionManager()
        #: Set by a ``shutdown`` request; transports poll it after replying.
        self.shutdown_requested = False

    # -- line transport ----------------------------------------------------

    def handle_line(self, line: str) -> str | None:
        """One request line in, one response line out (None for blanks)."""
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
        return json.dumps(self.handle(request), sort_keys=True)

    # -- request dispatch --------------------------------------------------

    def handle(self, request) -> dict:
        if not isinstance(request, dict):
            return _error_response(None, "ServiceError", "request must be an object")
        request_id = request.get("id")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return _error_response(
                request_id,
                "ServiceError",
                f"unknown op {op!r}; see docs/SERVICE.md for the op list",
            )
        try:
            result = handler(request)
        except DatalogError as exc:
            return _error_response(request_id, type(exc).__name__, str(exc))
        except Exception as exc:  # noqa: BLE001 - a request must never
            # kill its connection thread / worker lane; anything the
            # handlers did not anticipate becomes a structured error too.
            return _error_response(request_id, type(exc).__name__, str(exc))
        response = {"id": request_id, "ok": True}
        response.update(result)
        return response

    def _session(self, request) -> Session:
        return self.manager.get(request.get("session", "default"))

    # -- operations --------------------------------------------------------

    def _op_open(self, request) -> dict:
        for required in ("analysis", "subject"):
            if required not in request:
                raise ServiceError(f"open requires {required!r}")
        kwargs = {k: request[k] for k in _CONFIG_FIELDS if k in request}
        name = request.get("session", "default")
        session = self.manager.open(name, SessionConfig(**kwargs))
        snap = session.snapshot
        return {
            "session": name,
            "protocol": PROTOCOL_VERSION,
            "engine": session.engine_cls.__name__,
            "init_seconds": session.init_seconds,
            "snapshot_version": snap.version,
            "exported": sorted(snap.views),
            "durable_seq": session.durable_seq,
        }

    def _op_update(self, request) -> dict:
        session = self._session(request)
        seq = request.get("seq")
        if seq is not None and not isinstance(seq, int):
            raise ServiceError("update 'seq' must be an integer")
        result = session.update(
            insertions=_rows_mapping(request.get("insert"), "insert"),
            deletions=_rows_mapping(request.get("delete"), "delete"),
            seq=seq,
        )
        if request.get("flush"):
            result["flush"] = session.flush()
        # Read after the flush: what the cluster front end may now forget.
        result["durable_seq"] = session.durable_seq
        return result

    def _op_flush(self, request) -> dict:
        return {"flush": self._session(request).flush()}

    def _op_query(self, request) -> dict:
        pred = request.get("predicate")
        if not isinstance(pred, str):
            raise ServiceError("query requires a 'predicate' string")
        session = self._session(request)
        if request.get("flush"):
            session.flush()
        return session.query(
            pred, limit=_bounded_int(request, "limit", default=None, lo=0)
        )

    def _op_explain(self, request) -> dict:
        pred, row = _pred_and_row(request, "explain")
        session = self._session(request)
        if request.get("flush"):
            session.flush()
        return session.explain(
            pred,
            row,
            max_depth=_bounded_int(request, "depth", default=12, lo=1, hi=64),
            max_nodes=_bounded_int(
                request, "max_nodes", default=256, lo=1, hi=10_000
            ),
        )

    def _op_whynot(self, request) -> dict:
        pred, row = _pred_and_row(request, "whynot")
        session = self._session(request)
        if request.get("flush"):
            session.flush()
        return session.whynot(
            pred,
            row,
            max_rules=_bounded_int(request, "max_rules", default=8, lo=1, hi=64),
        )

    def _op_rollback(self, request) -> dict:
        pred, row = _pred_and_row(request, "rollback")
        return self._session(request).rollback_suggestions(
            pred,
            row,
            max_suggestions=_bounded_int(
                request, "max_suggestions", default=3, lo=1, hi=16
            ),
            max_edits=_bounded_int(request, "max_edits", default=4, lo=1, hi=16),
        )

    def _op_snapshot(self, request) -> dict:
        return self._session(request).snapshot_info(
            views=bool(request.get("views"))
        )

    def _op_save(self, request) -> dict:
        path = request.get("path")
        if not isinstance(path, str):
            raise ServiceError("save requires a 'path' string")
        return self._session(request).save(path)

    def _op_restore(self, request) -> dict:
        path = request.get("path")
        if not isinstance(path, str):
            raise ServiceError("restore requires a 'path' string")
        return self._session(request).restore(path)

    def _op_stats(self, request) -> dict:
        if "session" in request:
            return self._session(request).stats()
        return {
            "protocol": PROTOCOL_VERSION,
            "sessions": self.manager.names(),
        }

    def _op_ping(self, request) -> dict:
        """Liveness probe (the cluster supervisor's heartbeat).

        The ``worker.heartbeat`` fault site lives here: an armed plan
        turns the pong into an error response, which the supervisor
        counts as a heartbeat miss — the deterministic way to drive the
        liveness-deadline recovery path in tests."""
        if _faults.ACTIVE is not None:
            _faults.fire("worker.heartbeat")
        return {"pong": True, "sessions": self.manager.names()}

    def _op_close(self, request) -> dict:
        return self.manager.close(request.get("session", "default"))

    def _op_shutdown(self, request) -> dict:
        self.shutdown_requested = True
        return {"closing": True}

    def close(self) -> None:
        """Drain and close every session (transport teardown hook; the
        cluster front end overrides this to tear down its workers)."""
        self.manager.close_all()


def _error_response(request_id, error_type: str, message: str) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }
