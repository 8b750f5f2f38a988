"""Cluster fault-tolerance acceptance tests.

The headline scenario kill -9s a worker in the middle of a live edit
stream and asserts the session resumes on a fresh worker with final
exported-view digests **bit-equal** to a from-scratch semi-naive solve of
the same edit sequence — for both storage backends.  Around it: the
fault-injected dispatch smoke (retries absorb transient faults) and the
SIGTERM process-tree shutdown contract (front end exit code 7, no
orphaned workers).
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analyses import constant_propagation
from repro.changes.soak import reference_digest
from repro.changes.stream import EditStream, editor_for
from repro.corpus import load_subject
from repro.robustness import faults
from repro.service import ClusterConfig, ClusterService

REPO = Path(__file__).parent.parent.parent
SRC = str(REPO / "src")

pytestmark = pytest.mark.slow


def wire_rows(mapping) -> dict:
    return {pred: [list(row) for row in rows] for pred, rows in mapping.items()}


def _await_dead(pid: int, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # pragma: no cover - container quirk
            return True
        time.sleep(0.1)
    return False


@pytest.mark.parametrize("backend", ["object", "columnar"])
def test_kill9_mid_edit_stream_recovers_bit_equal(backend):
    program = copy.deepcopy(load_subject("minijavac"))
    instance = constant_propagation(program)
    facts = {pred: set(rows) for pred, rows in instance.facts.items()}
    editor = editor_for(program, "constprop")
    stream = EditStream(editor, seed=11)

    config = ClusterConfig(
        workers=2,
        checkpoint_every=3,
        heartbeat_interval=0.5,
        worker_env={"REPRO_BACKEND": backend},
    )
    with ClusterService(config) as service:
        opened = service.handle(
            {
                "op": "open",
                "session": "edits",
                "analysis": "constprop",
                "subject": "minijavac",
                "engine": "laddder",
                "flush_size": 4,
                "flush_latency": 0.01,
                "id": "open",
            }
        )
        assert opened["ok"], opened

        killed = False
        for index in range(30):
            step = stream.step()
            step.change.apply_to(facts)
            response = service.handle(
                {
                    "op": "update",
                    "session": "edits",
                    "insert": wire_rows(step.change.insertions),
                    "delete": wire_rows(step.change.deletions),
                    "flush": index % 3 == 2,
                    "id": f"u{index}",
                }
            )
            assert response["ok"], (index, response)
            if index == 14:
                # Let at least one periodic checkpoint land, then murder
                # the worker owning the session, mid-stream, kill -9 —
                # no drain, no goodbye.  The very next update must
                # recover transparently (checkpoint restore + journal
                # suffix replay) with exactly-once visibility.
                slot = service.router.slot_for("edits")
                pid = service.worker_pids()[slot]
                os.kill(pid, signal.SIGKILL)
                assert _await_dead(pid)
                killed = True
        assert killed

        flushed = service.handle({"op": "flush", "session": "edits", "id": "f"})
        assert flushed["ok"], flushed
        snap = service.handle(
            {"op": "snapshot", "session": "edits", "views": True, "id": "s"}
        )
        assert snap["ok"], snap

        stats = service.handle({"op": "stats", "id": "stats"})
        counters = stats["cluster"]["counters"]
        assert counters["worker_restarts"] >= 1
        assert counters["sessions_recovered"] >= 1
        assert counters["replayed_ops"] >= 1
        assert counters["journal_truncations"] == 0
        # The recovered worker resolved its configuration from its own
        # environment; one session, so the merge reports the one dict.
        assert stats["solver_config"]["backend"] == backend

    expected = reference_digest(instance.program, facts)
    assert snap["digest"] == expected, (
        f"recovered session digest diverged from the from-scratch "
        f"reference on backend {backend!r}"
    )


def _checkpoints_written(service, session: str, due: int) -> int:
    """The session's checkpoint count, once the ``due`` checkpoints that its
    applied batches have triggered are on disk."""
    deadline = time.monotonic() + 30
    while True:
        written = service.handle({"op": "stats", "session": session})[
            "checkpoint"
        ]["written"]
        if written >= due or time.monotonic() > deadline:
            return written
        time.sleep(0.02)


def test_crash_between_checkpoint_and_sidecar_renames_recovers(tmp_path):
    """A periodic checkpoint is two renames: the state file, then the
    ``.meta`` sidecar naming the ``seq`` it covers.  A worker killed
    between them leaves a *fresh* state file beside a *stale* sidecar, so
    recovery restores the newer state and replays journal entries it
    already contains.  Replay is of absolute set-edits, in order, so the
    session must still end bit-equal to the from-scratch reference."""
    program = copy.deepcopy(load_subject("minijavac"))
    instance = constant_propagation(program)
    facts = {pred: set(rows) for pred, rows in instance.facts.items()}
    stream = EditStream(editor_for(program, "constprop"), seed=5)

    config = ClusterConfig(
        workers=1,
        checkpoint_every=2,
        heartbeat_interval=3600.0,  # recovery only when the test asks
        spool=str(tmp_path),
    )
    with ClusterService(config) as service:
        opened = service.handle(
            {
                "op": "open",
                "session": "edits",
                "analysis": "constprop",
                "subject": "minijavac",
                "engine": "laddder",
            }
        )
        assert opened["ok"], opened
        meta_path = Path(service._checkpoint_path("edits") + ".meta")

        sent = 0

        def edit() -> dict:
            nonlocal sent
            step = stream.step()
            step.change.apply_to(facts)
            response = service.handle(
                {
                    "op": "update",
                    "session": "edits",
                    "insert": wire_rows(step.change.insertions),
                    "delete": wire_rows(step.change.deletions),
                    "flush": True,
                    "id": f"u{sent}",
                }
            )
            sent += 1
            assert response["ok"] and response["flush"]["ok"], response
            return service.handle({"op": "stats", "session": "edits"})

        def edit_until_checkpoint(number: int) -> dict:
            """Edit until the ``number``-th checkpoint has landed (an edit
            the queue cancels applies no batch, so count batches)."""
            for _ in range(12):
                applied = edit()["metrics"]["service"]["batches_applied"]
                if _checkpoints_written(service, "edits", applied // 2) >= number:
                    return json.loads(meta_path.read_text())
            raise AssertionError(f"checkpoint {number} never landed")

        stale = edit_until_checkpoint(1)
        fresh = edit_until_checkpoint(2)
        assert 0 < stale["seq"] < fresh["seq"] == sent

        # The crash window, reproduced on disk: state file of the second
        # checkpoint, sidecar of the first.
        worker = service._slots["w0"].client.process
        worker.kill()
        worker.wait(timeout=30)  # no supervisor round will reap it for us
        meta_path.write_text(json.dumps(stale))

        edit()  # finds the worker dead: restore, replay, then apply
        snap = service.handle({"op": "snapshot", "session": "edits"})
        assert snap["ok"], snap
        counters = service.handle({"op": "stats"})["cluster"]["counters"]
        assert counters["sessions_recovered"] == 1
        # Everything after the stale seq was replayed, the entries the
        # restored state already covers included.
        assert counters["replayed_ops"] == sent - stale["seq"]
        restored = service.handle({"op": "stats", "session": "edits"})
        assert restored["restored_from"] == service._checkpoint_path("edits")

    assert snap["digest"] == reference_digest(instance.program, facts)


def test_fault_injected_dispatch_is_absorbed_by_retries():
    # cluster.dispatch fires in the *front-end* process, so the in-process
    # inject() harness reaches it; two injected failures must be absorbed
    # by the retry/backoff policy without the client seeing either.
    config = ClusterConfig(
        workers=1,
        checkpoint_every=None,
        heartbeat_interval=3600.0,
        retries=4,
        backoff_base=0.01,
    )
    with ClusterService(config) as service:
        opened = service.handle(
            {
                "op": "open",
                "session": "faulty",
                "analysis": "constprop",
                "subject": "minijavac",
                "id": "open",
            }
        )
        assert opened["ok"], opened
        with faults.inject("cluster.dispatch", at=1, times=2) as plan:
            response = service.handle(
                {
                    "op": "update",
                    "session": "faulty",
                    "insert": {"assign_lit": [["fz", "fm", 5]]},
                    "flush": True,
                    "id": "u",
                }
            )
        assert response["ok"], response
        assert plan.fired == 2
        assert service.counters["retries"] >= 2


def test_sigterm_shuts_down_the_whole_worker_tree():
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        bufsize=1,
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=str(REPO),
    )
    try:
        banner = process.stdout.readline()
        assert banner.startswith("repro serve cluster:"), banner
        pids = [
            int(part.split("=", 1)[1]) for part in banner.split()[3:]
        ]
        assert len(pids) == 2

        process.stdin.write(json.dumps({"op": "ping", "id": 1}) + "\n")
        process.stdin.flush()
        pong = json.loads(process.stdout.readline())
        assert pong["ok"] and pong["pong"]

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60)
        assert returncode == 7, process.stderr.read()[-2000:]
        for pid in pids:
            assert _await_dead(pid), f"worker {pid} survived the SIGTERM tree"
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.wait()
