"""Cluster worker process: one supervised shard of the session table.

Run as ``python -m repro.service.worker`` with framed JSON lines on
stdin/stdout (the cluster front end owns the pipe; see
:mod:`repro.service.cluster`).  A request line is ``TAG<tab>JSON`` where
``TAG`` is the front end's correlation id, followed for a journaled op by
a space and its ``seq``; the response line is ``correlation id<tab>JSON``.
The JSON on either side is exactly what a single-process client would send
and receive — the client's own ``id`` included — so the front end can
forward both without parsing them.
Each worker hosts a :class:`~repro.service.protocol.ServiceProtocol` — the
same dispatcher ``repro serve`` uses single-process — so the whole op set
works unchanged; the cluster merely routes sessions here.

Concurrency model: the stdio loop must never block behind a slow request,
or the supervisor's heartbeats would time out during every long ``flush``
and misread a busy worker as a dead one.  Requests are therefore fanned
out to **per-session lanes** (one ordered dispatch thread per session):

* Ops on the same session execute in arrival order — which the front end
  makes equal to journal sequence order — so replay is deterministic.
* Ops on different sessions run concurrently (a worker hosts every
  session the ring assigns it).
* ``ping``, ``shutdown``, and server-wide ``stats`` answer inline from
  the read loop, so liveness probes return promptly no matter how busy
  the lanes are.

Responses are written whenever their lane finishes, serialized by a write
lock — **out of order across sessions**.  The front end correlates by
the tag, never by position.

Shutdown: stdin EOF (the front end closed the pipe), a ``shutdown``
request, or SIGTERM/SIGINT all drain every session before the process
exits — the same guarantee the single-process transports give.

Fault injection: ``REPRO_FAULT=site[:at[:times]]`` arms a deterministic
fault plan at startup (:func:`repro.robustness.faults.arm_from_env`), the
only way tests can plant failures inside a worker subprocess.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from queue import SimpleQueue

from ..datalog.errors import ShutdownRequested
from ..robustness import faults as _faults
from .protocol import MAX_LINE_BYTES, ServiceProtocol
from .server import install_signal_handlers

#: Ops answered inline by the read loop (must stay cheap and non-blocking).
_INLINE_OPS = frozenset({"ping", "shutdown"})


class _Lane:
    """One session's ordered dispatch queue and thread."""

    def __init__(self, name: str, protocol: ServiceProtocol, emit):
        self.protocol = protocol
        self.emit = emit
        self.queue: SimpleQueue = SimpleQueue()
        self.thread = threading.Thread(
            target=self._run, name=f"repro-lane-{name}", daemon=True
        )
        self.thread.start()

    def submit(self, correlation: str, request: dict) -> None:
        self.queue.put((correlation, request))

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            correlation, request = item
            try:
                response = self.protocol.handle(request)
            except BaseException as exc:  # noqa: BLE001 - lane must survive
                response = {
                    "id": request.get("id"),
                    "ok": False,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            self.emit(correlation, json.dumps(response, sort_keys=True))

    def close(self, timeout: float = 60.0) -> None:
        self.queue.put(None)
        self.thread.join(timeout=timeout)


def serve_worker(protocol: ServiceProtocol, stdin, stdout) -> int:
    """The worker read loop over binary streams (forwarded request lines
    are the client's own text, so the pipe is UTF-8 whatever the locale
    says); returns the number of requests accepted."""
    write_lock = threading.Lock()

    def emit(correlation: str, text: str) -> None:
        with write_lock:
            stdout.write(f"{correlation}\t{text}\n".encode())
            stdout.flush()

    lanes: dict[str, _Lane] = {}
    accepted = 0
    try:
        for line in stdin:
            tag, _, payload = line.decode().partition("\t")
            payload = payload.strip()
            if not payload:
                continue
            accepted += 1
            correlation, _, seq = tag.partition(" ")
            request = None
            if len(payload) <= MAX_LINE_BYTES:
                try:
                    request = json.loads(payload)
                except ValueError:
                    pass
            if not isinstance(request, dict):
                # The front end rejects these itself; answer the same way.
                emit(correlation, protocol.handle_line(payload))
                continue
            if seq:
                request["seq"] = int(seq)
            op = request.get("op")
            session = request.get("session", "default")
            inline = (
                op in _INLINE_OPS
                or (op == "stats" and "session" not in request)
                or not isinstance(session, str)
            )
            if inline:
                response = protocol.handle(request)
                emit(correlation, json.dumps(response, sort_keys=True))
                if protocol.shutdown_requested:
                    break
                continue
            lane = lanes.get(session)
            if lane is None:
                lane = lanes[session] = _Lane(session, protocol, emit)
            lane.submit(correlation, request)
    except ShutdownRequested:
        pass
    finally:
        for lane in lanes.values():
            lane.close()
        protocol.close()
    return accepted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.worker", description=__doc__
    )
    parser.add_argument(
        "--label",
        default="worker",
        help="slot label (shows up in tracebacks and process listings)",
    )
    args = parser.parse_args(argv)
    _faults.arm_from_env()
    restore = install_signal_handlers()
    protocol = ServiceProtocol()
    try:
        serve_worker(protocol, sys.stdin.buffer, sys.stdout.buffer)
    except ShutdownRequested:
        print(f"{args.label}: interrupted; sessions drained", file=sys.stderr)
    finally:
        restore()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
