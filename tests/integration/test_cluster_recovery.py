"""Cluster fault-tolerance acceptance tests.

The headline scenario kill -9s a worker in the middle of a live edit
stream and asserts the session resumes on a fresh worker with final
exported-view digests **bit-equal** to a from-scratch semi-naive solve of
the same edit sequence — for both storage backends.  Around it: the
four crash points of the durability mechanism (base file + batch log,
docs/SERVICE.md), a ``restore`` followed by a crash, the fault-injected
dispatch smoke (retries absorb transient faults) and the SIGTERM
process-tree shutdown contract (front end exit code 7, no orphaned
workers).
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
                # Murder the worker owning the session, mid-stream,
                # kill -9 — no drain, no goodbye.  The very next update
                # must recover transparently (base + log, then the
                # journal's tail) with exactly-once visibility.
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
        # The recovered worker resolved its configuration from its own
        # environment; one session, so the merge reports the one dict.
        assert stats["solver_config"]["backend"] == backend

    expected = reference_digest(instance.program, facts)
    assert snap["digest"] == expected, (
        f"recovered session digest diverged from the from-scratch "
        f"reference on backend {backend!r}"
    )


#: ``sitecustomize`` for the worker subprocesses of the crash-point test: it
#: kills the worker (kill -9, from inside) at one named point of the
#: durability mechanism, once — the marker file keeps the replacement worker
#: from dying at the same point again.
_CRASH_HOOK = '''
import os, signal

point, _, marker = os.environ.get("REPRO_TEST_CRASH", "").partition("@")
if point and not os.path.exists(marker):
    from repro.engines import checkpoint
    from repro.service import session

    def die(*args):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)

    if point == "after-append-before-ack":
        log_batch = session.Session._log_batch

        def dying_log_batch(self, batch, version):
            log_batch(self, batch, version)
            if self._log.records == 4:
                die()

        session.Session._log_batch = dying_log_batch
    elif point == "during-base-write":
        def torn_write(body, path):
            with open(f"{path}.tmp", "wb") as handle:
                handle.write(body[: len(body) // 2])
            die()

        session.write_checkpoint = torn_write
    elif point == "after-base-rename-before-trim":
        checkpoint.CheckpointLog.trim = die
    elif point == "mid-log-trim":
        replace = os.replace

        def dying_replace(src, dst):
            if str(dst).endswith(".log"):
                die()
            replace(src, dst)

        os.replace = dying_replace
'''

CRASH_POINTS = [
    "after-append-before-ack",
    "during-base-write",
    "after-base-rename-before-trim",
    "mid-log-trim",
]


def _settled_spool(service, spool: Path, session: str) -> list[str]:
    """The spool's file names once the session's base writer is idle."""
    deadline = time.monotonic() + 30
    while True:
        spool_stats = service.handle({"op": "stats", "session": session})["checkpoint"]
        names = sorted(os.listdir(spool))
        settled = spool_stats["base_bytes"] > 0 and not any(
            name.endswith(".tmp") for name in names
        )
        if settled or time.monotonic() > deadline:
            return names
        time.sleep(0.05)


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_nothing_acknowledged_is_lost_at_any_crash_point(point, tmp_path):
    """Kill the worker at each point where the base file and the log are
    momentarily out of step.  Every update the client saw acknowledged must
    be in the recovered state — bit-equal to a from-scratch solve of the
    client's facts — and a request id sent again must not apply again."""
    instance = constant_propagation(copy.deepcopy(load_subject("minijavac")))
    facts = {pred: set(rows) for pred, rows in instance.facts.items()}
    statements = sorted(facts["assignlit"])[:3]

    hook_dir, spool = tmp_path / "hook", tmp_path / "spool"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_CRASH_HOOK)
    marker = tmp_path / "crashed"
    config = ClusterConfig(
        workers=1,
        heartbeat_interval=3600.0,  # recovery only when a dispatch finds out
        spool=str(spool),
        worker_env={
            "PYTHONPATH": os.pathsep.join([str(hook_dir), SRC]),
            "REPRO_TEST_CRASH": f"{point}@{marker}",
        },
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

        # Retype three literals in turn: an edit applied a second time, out
        # of turn, would bring a stale literal back beside the current one.
        requests, responses = [], []
        current = list(statements)
        for index in range(9):
            old = current[index % 3]
            new = current[index % 3] = (*old[:2], 7000 + index)
            facts["assignlit"].discard(old)
            facts["assignlit"].add(new)
            requests.append(
                {
                    "op": "update",
                    "session": "edits",
                    "insert": {"assignlit": [list(new)]},
                    "delete": {"assignlit": [list(old)]},
                    "flush": True,
                    "id": f"u{index}",
                }
            )
            responses.append(service.handle(dict(requests[-1])))
            assert responses[-1]["ok"], (index, responses[-1])
        assert marker.exists(), f"the worker never reached {point}"

        for index in (0, 3, 8):
            # Exactly-once under client retry: the answer of the first
            # time, and no second apply.
            assert service.handle(dict(requests[index])) == responses[index]
        flushed = service.handle({"op": "flush", "session": "edits"})
        assert flushed["ok"], flushed
        snap = service.handle({"op": "snapshot", "session": "edits"})
        assert snap["ok"], snap

        counters = service.handle({"op": "stats"})["cluster"]["counters"]
        assert counters["worker_restarts"] == 1
        assert counters["sessions_recovered"] == 1
        stats = service.handle({"op": "stats", "session": "edits"})
        assert stats["restored_from"] == service._checkpoint_path("edits")
        assert stats["checkpoint"]["errors"] == 0
        # What the crash left half-done is gone: one base, one log.
        assert _settled_spool(service, spool, "edits") == [
            "edits.ckpt", "edits.ckpt.log"
        ]

    assert snap["digest"] == reference_digest(instance.program, facts)


def test_restore_then_crash_recovers_the_restored_state(tmp_path):
    """The bug: ``restore`` pruned the front end's journal but left the
    spool describing the state before it, so a crash right after brought
    that state back, silently.  Now the session rebases its spool (new
    base, empty log) before it answers."""
    program = copy.deepcopy(load_subject("minijavac"))
    stream = EditStream(editor_for(program, "constprop"), seed=5)
    config = ClusterConfig(
        workers=1, heartbeat_interval=3600.0, spool=str(tmp_path / "spool")
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

        def edit(count: int) -> None:
            for _ in range(count):
                step = stream.step()
                response = service.handle(
                    {
                        "op": "update",
                        "session": "edits",
                        "insert": wire_rows(step.change.insertions),
                        "delete": wire_rows(step.change.deletions),
                        "flush": True,
                    }
                )
                assert response["ok"] and response["flush"]["ok"], response

        def digest() -> str:
            snap = service.handle({"op": "snapshot", "session": "edits"})
            assert snap["ok"], snap
            return snap["digest"]

        edit(3)
        saved = service.handle(
            {"op": "save", "session": "edits", "path": str(tmp_path / "a.ckpt")}
        )
        assert saved["ok"], saved
        digest_at_save = digest()
        edit(5)
        assert digest() != digest_at_save
        restored = service.handle(
            {"op": "restore", "session": "edits", "path": str(tmp_path / "a.ckpt")}
        )
        assert restored["ok"] and restored["durable_seq"] == 8, restored
        assert service.router.record("edits").journal_snapshot() == []

        worker = service._slots["w0"].client.process
        worker.kill()
        worker.wait(timeout=30)  # no supervisor round will reap it for us

        assert digest() == digest_at_save  # finds the worker dead: recover
        counters = service.handle({"op": "stats"})["cluster"]["counters"]
        assert counters["sessions_recovered"] == 1
        assert counters["replayed_ops"] == 0
        edit(1)  # and the session goes on from there
        assert digest() != digest_at_save


def test_fault_injected_dispatch_is_absorbed_by_retries():
    # cluster.dispatch fires in the *front-end* process, so the in-process
    # inject() harness reaches it; two injected failures must be absorbed
    # by the retry/backoff policy without the client seeing either.
    config = ClusterConfig(
        workers=1,
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
