#!/usr/bin/env python
"""Scripted end-to-end client for the ``repro serve`` TCP front end.

Spawns a real server subprocess on an ephemeral port, then drives the full
session lifecycle over a socket — open, incremental updates, snapshot
queries, save, restore, close, shutdown — asserting a golden response
shape at every step.  The decisive checks are semantic, not cosmetic:

* an insert of a fresh ``flow``+``assignlit`` pair derives exactly one new
  ``val`` row, visible only after the batch is flushed;
* the snapshot digest after ``restore`` is byte-identical to the digest at
  ``save`` time (checkpoint round-trip = bit-equal exported views);
* a published version is rendered once: the same ``query`` three times and
  one ``snapshot`` against one version answer byte-identical rows and the
  golden digest for ``stats.metrics.service.renders`` up by exactly one;
* the server process exits 0 after a protocol-level ``shutdown``;
* a second, clustered server (``--workers 2``) whose session-owning worker
  is ``kill -9``ed answers the next ``query`` from the recovered session
  with the golden digest, after exactly one worker restart, from a spool
  that holds one base and one log per session and nothing else.

Run as ``PYTHONPATH=src python tools/service_smoke.py``.  Exits non-zero
with a diagnostic on the first divergence; CI runs this in the ``service``
job.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: A self-contained EDB edit deriving exactly one new ``val`` row (the
#: valueflow rules derive nothing from an assignlit without a flow edge).
INSERT = {"flow": [["n_x1", "n_x2"]], "assignlit": [["n_x1", "vz", 3]]}

#: The snapshot digest once INSERT has applied: SHA-256 of the exported
#: predicate names and the 256-bit sum of one blake2b-256 per exported row,
#: as computed from scratch by the independent oracle of
#: tests/property/test_snapshot_render.py.  Recorded benchmark reference
#: digests and soak gates are the same function of the exported rows: if
#: this moves, they all did.
DIGEST_AFTER_INSERT = (
    "1450bd69662b1fe7a229cb85fde8cb466e7fec0f19db62e96f65bff007e3312b"
)

OPEN = {
    "op": "open",
    "analysis": "constprop",
    "subject": "minijavac",
    "engine": "laddder",
    # Manual flushing: the script controls exactly when batches apply.
    "flush_size": 100000,
    "flush_latency": 3600.0,
}


class SmokeFailure(AssertionError):
    pass


def expect(response: dict, golden: dict, step: str) -> dict:
    """Assert every golden key is present with the exact golden value."""
    for key, want in golden.items():
        got = response.get(key, "<missing>")
        if got != want:
            raise SmokeFailure(
                f"step {step!r}: expected {key}={want!r}, got {got!r}\n"
                f"full response: {json.dumps(response, indent=2)}"
            )
    return response


class Client:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=120)
        self.file = self.sock.makefile("rwb")
        self.ops = 0

    def call(self, request: dict) -> dict:
        request.setdefault("id", self.ops)
        self.ops += 1
        self.file.write(json.dumps(request).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise SmokeFailure(f"server closed the connection on {request}")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def start_server(*extra: str) -> tuple[subprocess.Popen, str, int]:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    banner = proc.stdout.readline()
    if banner.startswith("repro serve cluster:"):  # the workers' pids
        banner = proc.stdout.readline()
    match = re.search(r"listening on (\S+):(\d+)", banner)
    if not match:
        proc.kill()
        raise SmokeFailure(f"no listening banner, got {banner!r}")
    return proc, match.group(1), int(match.group(2))


def renders_so_far(client: Client) -> int:
    stats = client.call({"op": "stats", "session": "default"})
    return stats["metrics"]["service"]["renders"]


def run(client: Client, ckpt: str) -> None:
    opened = expect(
        client.call(dict(OPEN)),
        {
            "ok": True,
            "session": "default",
            "protocol": 1,
            "engine": "LaddderSolver",
            "snapshot_version": 1,
            "exported": ["val"],
        },
        "open",
    )

    baseline = expect(
        client.call({"op": "query", "predicate": "val", "limit": 0}),
        {"ok": True, "version": 1, "rows": []},
        "baseline query",
    )["count"]

    expect(
        client.call({"op": "update", "insert": INSERT}),
        {"ok": True, "ops": 2, "coalesced": 0, "pending": 2},
        "update",
    )
    # Unflushed: reads still serve version 1.
    expect(
        client.call({"op": "query", "predicate": "val", "limit": 0}),
        {"ok": True, "version": 1, "count": baseline},
        "snapshot isolation before flush",
    )
    expect(
        client.call({"op": "query", "predicate": "val", "flush": True, "limit": 0}),
        {"ok": True, "version": 2, "count": baseline + 1},
        "query after flush",
    )

    digest = expect(
        client.call({"op": "snapshot"}),
        {"ok": True, "version": 2, "digest": DIGEST_AFTER_INSERT},
        "snapshot",
    )["digest"]
    saved = expect(
        client.call({"op": "save", "path": ckpt}),
        {"ok": True, "version": 2, "path": ckpt},
        "save",
    )
    if saved["bytes"] <= 0:
        raise SmokeFailure(f"empty checkpoint: {saved}")

    # Mutate past the checkpoint, then restore back to it.
    expect(
        client.call(
            {"op": "update", "delete": INSERT, "flush": True}
        ),
        {"ok": True},
        "revert update",
    )
    expect(
        client.call({"op": "query", "predicate": "val", "limit": 0}),
        {"ok": True, "version": 3, "count": baseline},
        "query after revert",
    )
    expect(
        client.call({"op": "restore", "path": ckpt}),
        {"ok": True, "version": 4, "dropped": 0},
        "restore",
    )
    # Version 4 is rendered once, by whichever read comes first: the same
    # query three times answers byte-identical rows, the digest is the one
    # taken at save time, and the four reads cost exactly one render.
    renders = renders_so_far(client)
    query = {"op": "query", "predicate": "val", "limit": 5}
    first = expect(
        client.call(dict(query)),
        {"ok": True, "version": 4, "count": baseline + 1},
        "query after restore",
    )
    for attempt in (2, 3):
        expect(
            client.call(dict(query)),
            {"ok": True, "version": 4, "rows": first["rows"]},
            f"repeated query {attempt}",
        )
    expect(
        client.call({"op": "snapshot"}),
        {"ok": True, "version": 4, "digest": digest},
        "digest round-trip",
    )
    built = renders_so_far(client) - renders
    if built != 1:
        raise SmokeFailure(
            f"expected one render for four reads of version 4, got {built}"
        )

    stats = expect(
        client.call({"op": "stats", "session": "default"}),
        {"ok": True, "failed_batches": 0, "pending": 0},
        "stats",
    )
    applied = stats["metrics"]["service"]["batches_applied"]
    if applied != 2:
        raise SmokeFailure(f"expected 2 applied batches, got {applied}")

    expect(client.call({"op": "close"}), {"ok": True, "closed": True}, "close")
    expect(
        client.call({"op": "shutdown"}), {"ok": True, "closing": True}, "shutdown"
    )


def await_spool(spool: str) -> None:
    """One base and one log for the one session, and nothing else."""
    deadline = time.monotonic() + 30
    while sorted(os.listdir(spool)) != ["default.ckpt", "default.ckpt.log"]:
        if time.monotonic() > deadline:
            raise SmokeFailure(f"unexpected spool contents: {os.listdir(spool)}")
        time.sleep(0.05)


def run_cluster(client: Client, spool: str) -> None:
    """The cluster leg: edits, ``kill -9`` of the worker that owns the
    session, and the next read served by its replacement."""
    expect(client.call(dict(OPEN)), {"ok": True, "durable_seq": 0}, "cluster open")
    # Do, undo, do again: three logged batches that end on the golden state.
    for seq, body in enumerate(("insert", "delete", "insert"), start=1):
        expect(
            client.call({"op": "update", body: INSERT, "flush": True}),
            {"ok": True, "seq": seq, "durable_seq": seq},
            f"cluster update {seq}",
        )
    # The first batch outgrew the absent base and wrote the only one.
    await_spool(spool)
    workers = client.call({"op": "stats"})["cluster"]["workers"].values()
    (owner,) = (w["pid"] for w in workers if "default" in w["sessions"])
    os.kill(owner, signal.SIGKILL)
    expect(
        client.call({"op": "query", "predicate": "val", "limit": 0}),
        {"ok": True},
        "query after kill -9",
    )
    expect(
        client.call({"op": "snapshot"}),
        {"ok": True, "digest": DIGEST_AFTER_INSERT},
        "digest after recovery",
    )
    stats = client.call({"op": "stats"})
    counters = stats["cluster"]["counters"]
    if (counters["worker_restarts"], counters["sessions_recovered"]) != (1, 1):
        raise SmokeFailure(f"expected one restart and one recovery: {counters}")
    await_spool(spool)  # the recovered session went on with the same pair
    expect(client.call({"op": "close"}), {"ok": True, "closed": True}, "close")
    if os.listdir(spool):
        raise SmokeFailure(f"close left the spool behind: {os.listdir(spool)}")
    expect(
        client.call({"op": "shutdown"}), {"ok": True, "closing": True}, "shutdown"
    )


def serve_and(extra: tuple[str, ...], script) -> int:
    """Start a server, run ``script(client)`` against it and see it exit
    cleanly; returns the ops the script made."""
    proc, host, port = start_server(*extra)
    client = Client(host, port)
    try:
        script(client)
        deadline = time.monotonic() + 120
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        if proc.returncode != 0:
            raise SmokeFailure(
                f"server exit code {proc.returncode}: {proc.stdout.read()[-2000:]}"
            )
        return client.ops
    finally:
        client.close()
        if proc.poll() is None:
            proc.kill()


def main() -> int:
    try:
        with tempfile.TemporaryDirectory() as scratch:
            ckpt = os.path.join(scratch, "saved.ckpt")
            ops = serve_and((), lambda client: run(client, ckpt))
            print(f"service smoke OK: {ops} ops, clean shutdown")
            spool = os.path.join(scratch, "spool")
            ops = serve_and(
                ("--workers", "2", "--spool", spool),
                lambda client: run_cluster(client, spool),
            )
            print(f"cluster smoke OK: {ops} ops, one worker killed and replaced")
        return 0
    except SmokeFailure as exc:
        print(f"service smoke FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
