"""Unit tests for the cluster building blocks: ring, journal, dispatch.

The expensive end-to-end paths (kill -9 a live worker mid-edit-stream,
SIGTERM tree shutdown) live in tests/integration/test_cluster_recovery.py;
this file covers the pure routing state and the dispatch policies —
overload rejection, backoff arithmetic, retry exhaustion, crash dedup —
against stub workers, plus one real two-worker cluster smoke.
"""

import json
import threading
import time

import pytest

from repro.datalog.errors import (
    OverloadedError,
    RetryExhaustedError,
    WorkerCrashError,
)
from repro.service import ClusterConfig, ClusterService, HashRing, Router
from repro.service.router import SessionRecord


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w0", "w1", "w2"])
        keys = [f"session-{i}" for i in range(200)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_spreads_sessions_across_slots(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        owners = {ring.lookup(f"s{i}") for i in range(200)}
        assert owners == {"w0", "w1", "w2", "w3"}

    def test_lookup_is_stable_for_a_key(self):
        ring = HashRing(["w0", "w1"])
        assert ring.lookup("alpha") == ring.lookup("alpha")

    def test_single_slot_owns_everything(self):
        ring = HashRing(["only"])
        assert ring.lookup("anything") == "only"

    def test_rejects_empty_and_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["w0"], vnodes=0)


class TestSessionRecord:
    def record(self, journal_limit=4, dedup_limit=2):
        return SessionRecord("s", "w0", journal_limit, dedup_limit)

    def test_seq_is_monotonic(self):
        record = self.record()
        assert [record.journal_op("{}") for _ in range(3)] == [1, 2, 3]

    def test_prune_drops_checkpoint_covered_prefix(self):
        record = self.record()
        for _ in range(3):
            record.journal_op("{}")
        assert record.prune_journal(None) == 0  # a response naming no seq
        assert record.prune_journal(2) == 2
        assert [s for s, _ in record.journal_snapshot()] == [3]

    def test_full_journal_refuses_the_op(self):
        record = self.record(journal_limit=2)
        assert [record.journal_op("{}") for _ in range(2)] == [1, 2]
        with pytest.raises(OverloadedError, match="not yet durable"):
            record.journal_op("{}")
        # Refused, not dropped: nothing was journaled and no seq was spent.
        assert [s for s, _ in record.journal_snapshot()] == [1, 2]
        record.prune_journal(1)
        assert record.journal_op("{}") == 3

    def test_dedup_window_is_bounded_fifo(self):
        record = self.record(dedup_limit=2)
        record.cache_response("a", {"id": "a"})
        record.cache_response("b", {"id": "b"})
        record.cache_response("c", {"id": "c"})
        assert record.cached_response("a") is None  # aged out
        assert record.cached_response("b") == {"id": "b"}
        assert record.cached_response(None) is None  # no id -> no dedup


class TestRouter:
    def test_record_is_get_or_create(self):
        router = Router(["w0", "w1"])
        assert router.record("s") is router.record("s")

    def test_names_lists_only_open_sessions(self):
        router = Router(["w0"])
        router.record("closedish")
        opened = router.record("open")
        opened.open_request = {"op": "open"}
        assert router.names() == ["open"]

    def test_sessions_on_filters_by_slot_in_name_order(self):
        router = Router(["w0", "w1"])
        names = [f"s{i}" for i in range(40)]
        for name in names:
            record = router.record(name)
            record.open_request = {"op": "open"}
        for slot in ("w0", "w1"):
            on_slot = router.sessions_on(slot)
            assert all(r.slot == slot for r in on_slot)
            assert [r.name for r in on_slot] == sorted(r.name for r in on_slot)
        total = len(router.sessions_on("w0")) + len(router.sessions_on("w1"))
        assert total == len(names)

    def test_drop_forgets_the_record(self):
        router = Router(["w0"])
        router.record("s").open_request = {"op": "open"}
        router.drop("s")
        assert router.names() == []


class _StubClient:
    """A WorkerClient double with scriptable behavior."""

    def __init__(self, script=None, inflight=0, alive=True):
        self.script = list(script or [])
        self.inflight = inflight
        self.alive = alive
        self.generation = 1
        self.pid = 4242
        self.calls = []
        self.lines = []

    def call_line(self, payload, timeout, seq=None):
        request = json.loads(payload)
        self.calls.append(dict(request, _seq=seq))
        self.lines.append(payload)
        if self.script:
            action = self.script.pop(0)
            if isinstance(action, Exception):
                raise action
            return action if isinstance(action, str) else json.dumps(action)
        return json.dumps(
            {"id": request.get("id"), "ok": True, "echo": request.get("op")}
        )

    def call(self, request, timeout):
        return json.loads(self.call_line(json.dumps(request), timeout))

    def kill(self):
        self.alive = False


def stub_cluster(client: _StubClient, **overrides) -> ClusterService:
    """A ClusterService whose single slot is backed by ``client`` — no
    subprocesses, no supervisor heartbeats, instant backoff."""
    config = ClusterConfig(
        workers=1,
        heartbeat_interval=3600.0,
        backoff_base=0.0,
        backoff_cap=0.0,
        **overrides,
    )
    service = ClusterService.__new__(ClusterService)
    service.config = config
    config.validate()
    import tempfile

    config.spool = tempfile.mkdtemp(prefix="repro-stub-spool-")
    service.router = Router(
        ["w0"], journal_limit=config.journal_limit, dedup_limit=config.dedup_limit
    )
    service._slots_cond = threading.Condition()
    from repro.service.cluster import _Slot

    service._slots = {"w0": _Slot("w0", client)}
    service.shutdown_requested = False
    service._closed = False
    service.counters = {
        "worker_restarts": 0,
        "sessions_recovered": 0,
        "replayed_ops": 0,
        "retries": 0,
        "heartbeat_misses": 0,
        "overloads": 0,
    }
    service._counters_lock = threading.Lock()
    service._stop = threading.Event()
    service._stop.set()  # no supervisor thread in stub mode
    # Recovery must not fork real subprocesses in stub mode: "replace" the
    # crashed worker with the same stub so scripted failures keep failing.
    service._spawn = lambda name: client
    return service


class TestDispatchPolicies:
    def test_overload_is_a_typed_immediate_rejection(self):
        client = _StubClient(inflight=128)
        service = stub_cluster(client, queue_limit=128)
        response = service.handle({"op": "flush", "session": "s", "id": 9})
        assert response["ok"] is False
        assert response["error"]["type"] == "OverloadedError"
        assert client.calls == []  # rejected before dispatch
        assert service.counters["overloads"] == 1

    def test_retry_exhaustion_chains_last_failure(self):
        client = _StubClient(
            script=[WorkerCrashError("boom")] * 10, alive=True
        )
        service = stub_cluster(client, retries=2)
        with pytest.raises(RetryExhaustedError) as excinfo:
            service._route({"op": "flush", "session": "s", "id": 1})
        assert isinstance(excinfo.value.__cause__, WorkerCrashError)
        assert service.counters["retries"] == 2  # retries, not attempts

    def test_transient_crash_then_success_retries_through(self):
        client = _StubClient(
            script=[WorkerCrashError("blip"), {"ok": True, "echo": "flush"}]
        )
        service = stub_cluster(client, retries=2)
        response = service.handle({"op": "flush", "session": "s", "id": 2})
        assert response["ok"] is True
        assert service.counters["retries"] == 1

    def test_handle_converts_typed_errors_to_responses(self):
        client = _StubClient(inflight=999)
        service = stub_cluster(client, queue_limit=1)
        response = service.handle({"op": "query", "session": "s", "id": 3})
        assert response == {
            "id": 3,
            "ok": False,
            "error": {
                "type": "OverloadedError",
                "message": response["error"]["message"],
            },
        }

    def test_mutating_ops_journal_before_dispatch(self):
        client = _StubClient()
        service = stub_cluster(client)
        record = service.router.record("s")
        response = service.handle(
            {"op": "update", "session": "s", "id": "u1", "insert": {}}
        )
        assert response["ok"] and response["seq"] == 1
        entries = record.journal_snapshot()
        assert [seq for seq, _ in entries] == [1]
        assert json.loads(entries[0][1])["id"] == "u1"  # the request line
        assert client.calls[-1]["_seq"] == 1  # seq rides in the pipe tag

    def test_journal_keeps_only_what_is_not_yet_durable(self):
        # The worker's answers name the seq its base and log now cover; the
        # front end forgets those ops and no others, and a session that
        # stops reporting progress gets its updates refused, none dropped.
        update = {"op": "update", "session": "s", "insert": {}}
        client = _StubClient(script=[
            {"ok": True, "durable_seq": 0},
            {"ok": True, "durable_seq": 2},
            {"ok": True, "durable_seq": 2},
            {"ok": True},
        ])
        service = stub_cluster(client, journal_limit=2)
        record = service.router.record("s")
        held = []
        for _ in range(4):
            assert service.handle(dict(update))["ok"]
            held.append([seq for seq, _ in record.journal_snapshot()])
        assert held == [[1], [], [3], [3, 4]]
        refused = service.handle(dict(update, id="late"))
        assert refused["error"]["type"] == "OverloadedError"
        assert len(client.calls) == 4 and record.seq == 4
        assert service.counters["overloads"] == 1
        # A restore answers with the seq its rebased spool covers.
        client.script.append({"ok": True, "durable_seq": 4})
        assert service.handle({"op": "restore", "session": "s", "path": "x"})["ok"]
        assert record.journal_snapshot() == []

    def test_recovery_replays_only_above_the_recovered_durable_seq(self):
        client = _StubClient()
        service = stub_cluster(client)
        record = service.router.record("s")
        record.open_request = {"op": "open", "session": "s",
                               "checkpoint_path": "/spool/s.ckpt"}
        for _ in range(3):
            record.journal_op('{"op": "update", "session": "s"}')
        client.script = [{"ok": True, "durable_seq": 2}]
        service._recover_session(record, client)
        # The re-open names the spool, and only seq 3 (plus the flush that
        # makes it durable) follows: 1 and 2 came back from the log.
        assert client.calls[0]["restore_from"] == "/spool/s.ckpt"
        assert [c["_seq"] for c in client.calls[1:]] == [3, None]
        assert service.counters["replayed_ops"] == 1
        # A dispatcher that was mid-flight on seq 2 must not send it again.
        outcome = service._dispatch(record, "{}", seq=2, mutating=True)
        assert json.loads(outcome) == {"ok": True, "replayed": True, "seq": 2}
        # A spool that fails validation: open again from scratch.
        client.calls.clear()
        client.script = [{"ok": False, "error": "CheckpointError"},
                         {"ok": True, "durable_seq": 0}]
        service._recover_session(record, client)
        assert "restore_from" in client.calls[0]
        assert "restore_from" not in client.calls[1]
        assert [c["_seq"] for c in client.calls[2:]] == [1, 2, 3, None]

    def test_duplicate_request_id_returns_cached_response(self):
        client = _StubClient()
        service = stub_cluster(client)
        first = service.handle(
            {"op": "update", "session": "s", "id": "dup", "insert": {}}
        )
        again = service.handle(
            {"op": "update", "session": "s", "id": "dup", "insert": {}}
        )
        assert again == first
        assert len(client.calls) == 1  # the worker saw the op exactly once

    def test_replayed_outcome_short_circuits_redispatch(self):
        client = _StubClient()
        service = stub_cluster(client)
        record = service.router.record("s")
        record.replayed_through = 1
        record.outcomes[1] = '{"ok": true, "replayed_by_recovery": true}'
        outcome = service._dispatch(
            record, '{"op": "update", "session": "s"}', seq=1, mutating=True
        )
        assert json.loads(outcome)["replayed_by_recovery"] is True
        assert client.calls == []

    def test_backoff_delays_are_capped_exponential(self):
        client = _StubClient(script=[WorkerCrashError("x")] * 4)
        service = stub_cluster(client, retries=3)
        service.config.backoff_base = 0.01
        service.config.backoff_cap = 0.02
        slept = []
        import repro.service.cluster as cluster_mod

        original = cluster_mod.time.sleep
        cluster_mod.time.sleep = lambda s: slept.append(s)
        try:
            with pytest.raises(RetryExhaustedError):
                service._route({"op": "flush", "session": "s"})
        finally:
            cluster_mod.time.sleep = original
        assert slept == [0.01, 0.02, 0.02]  # base, x2, capped


class TestFrontendOps:
    def test_ping_and_shutdown_answered_without_workers(self):
        service = stub_cluster(_StubClient())
        pong = service.handle({"op": "ping", "id": 1})
        assert pong == {"id": 1, "ok": True, "pong": True, "sessions": []}
        closing = service.handle({"op": "shutdown", "id": 2})
        assert closing["closing"] is True
        assert service.shutdown_requested is True

    def test_handle_line_round_trips_json(self):
        service = stub_cluster(_StubClient())
        out = service.handle_line('{"op": "ping", "id": 7}\n')
        assert json.loads(out)["pong"] is True
        assert service.handle_line("   \n") is None
        bad = json.loads(service.handle_line('{"op":'))
        assert bad["error"]["type"] == "ParseError"

    def test_session_reads_cross_the_front_end_as_text(self):
        # Lines no ``json.dumps`` here would produce, in either direction:
        # what arrives is what was sent, so nothing was transcoded.
        answer = '{"rows":[ ["é"] ],"ok":true ,  "id":"mine"}'
        for op in ("query", "snapshot", "stats", "explain", "whynot"):
            ask = '{ "id":"mine","session":"s" ,"op":"%s", "row":["é"]}' % op
            client = _StubClient(script=[answer])
            service = stub_cluster(client)
            assert service.handle_line(ask + "\n") == answer
            assert client.lines == [ask]
            assert client.calls[0]["_seq"] is None
        # The dict entry point parses the same line for its caller.
        service = stub_cluster(_StubClient(script=[answer]))
        assert service.handle({"op": "query", "session": "s"})["rows"] == [["é"]]

    def test_malformed_requests_get_structured_errors(self):
        service = stub_cluster(_StubClient())
        assert service.handle([1, 2])["ok"] is False
        assert service.handle({"op": 7})["ok"] is False
        assert service.handle({"op": "flush", "session": 9})["ok"] is False


@pytest.mark.slow
class TestRealWorkerSmoke:
    def test_two_workers_serve_and_close(self):
        config = ClusterConfig(
            workers=2, heartbeat_interval=0.5
        )
        with ClusterService(config) as service:
            pids = service.worker_pids()
            assert len(pids) == 2
            pong = service.handle({"op": "ping", "id": 1})
            assert pong["ok"] and pong["pong"]
            opened = service.handle(
                {
                    "op": "open",
                    "session": "smoke",
                    "analysis": "constprop",
                    "subject": "minijavac",
                    "seed": 3,
                }
            )
            assert opened["ok"], opened
            updated = service.handle(
                {
                    "op": "update",
                    "session": "smoke",
                    "insert": {"assign_lit": [["sx", "sm", 1]]},
                    "flush": True,
                    "id": "u",
                }
            )
            assert updated["ok"] and updated["seq"] == 1
            for _ in range(2):
                assert service.handle(
                    {"op": "query", "session": "smoke", "predicate": "val"}
                )["ok"]
            stats = service.handle({"op": "stats", "id": 2})
            assert stats["sessions"] == ["smoke"]
            assert stats["cluster"]["counters"]["worker_restarts"] == 0
            # Session counters are summed group by group across workers.
            assert stats["metrics"]["service"]["queries_served"] == 2
            assert stats["metrics"]["service"]["renders"] == 1
            closed = service.handle({"op": "close", "session": "smoke"})
            assert closed["ok"]

    def test_heartbeat_miss_triggers_recovery(self):
        # Arm worker.heartbeat inside the worker subprocesses: every ping
        # from the supervisor comes back as an error response, which after
        # `heartbeat_misses` consecutive misses must kill + replace the
        # worker.  REPRO_FAULT with a huge `times` keeps every generation
        # of worker failing, so we only assert the restart counter moved.
        config = ClusterConfig(
            workers=1,
            heartbeat_interval=0.1,
            heartbeat_misses=2,
            heartbeat_timeout=5.0,
            worker_env={"REPRO_FAULT": "worker.heartbeat:1:1000000"},
        )
        with ClusterService(config) as service:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service.counters["worker_restarts"] >= 1:
                    break
                time.sleep(0.1)
            assert service.counters["worker_restarts"] >= 1
            assert service.counters["heartbeat_misses"] >= 2


class _BlockingProtocol:
    """A ServiceProtocol double whose ``slow`` session blocks on an event."""

    shutdown_requested = False

    def __init__(self):
        self.release = threading.Event()

    def handle(self, request):
        if request.get("session") == "slow":
            assert self.release.wait(timeout=30)
        return {"id": request.get("id"), "ok": True, "seq": request.get("seq")}

    def close(self):
        pass


class TestWorkerFraming:
    def test_lanes_answer_out_of_order_under_their_own_tags(self):
        import os

        from repro.service.worker import serve_worker

        protocol = _BlockingProtocol()
        to_worker, from_front = os.pipe()
        to_front, from_worker = os.pipe()
        stdin = os.fdopen(to_worker, "rb")
        stdout = os.fdopen(from_worker, "wb")
        front_out = os.fdopen(from_front, "w", encoding="utf-8")
        front_in = os.fdopen(to_front, "r", encoding="utf-8")
        served = threading.Thread(
            target=serve_worker, args=(protocol, stdin, stdout), daemon=True
        )
        served.start()
        try:
            front_out.write('c1 7\t{"op": "update", "session": "slow", "id": "a"}\n')
            front_out.write('c2\t{"op": "query", "session": "fast", "id": "a"}\n')
            front_out.write("stray line without a tag\n")
            front_out.flush()
            # The later request overtakes the blocked one; each answer
            # carries its own tag and the client's id, untouched.
            tag, _, body = front_in.readline().rstrip("\n").partition("\t")
            assert tag == "c2"
            assert json.loads(body) == {"id": "a", "ok": True, "seq": None}
            protocol.release.set()
            tag, _, body = front_in.readline().rstrip("\n").partition("\t")
            assert tag == "c1"  # the seq rode in the tag, not in the JSON
            assert json.loads(body) == {"id": "a", "ok": True, "seq": 7}
        finally:
            protocol.release.set()
            front_out.close()
            served.join(timeout=30)
            assert not served.is_alive()
            for handle in (stdin, stdout, front_in):
                handle.close()


OPEN = {"op": "open", "analysis": "constprop", "subject": "minijavac", "seed": 3}


#: ``explain`` and ``rollback`` pick among equal derivations in set order, so
#: the two sides of the comparison must hash strings alike.
_ONE_HASH_SEED = {"PYTHONHASHSEED": "0", "PYTHONUTF8": "1"}


class _StdioServer:
    """``python -m repro serve`` on a pipe: ``ServiceProtocol.handle_line``
    and nothing else, in a process of its own like the cluster's worker."""

    def __init__(self):
        import os
        import subprocess
        import sys

        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            encoding="utf-8",
            env={
                **os.environ,
                **_ONE_HASH_SEED,
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
        )
        self.lock = threading.Lock()

    def handle_line(self, line: str) -> str:
        with self.lock:
            self.process.stdin.write(line + "\n")
            self.process.stdin.flush()
            return self.process.stdout.readline().rstrip("\n")

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()


def _scrub(value):
    """Drop what the two sides cannot share: their own clocks' readings,
    and the ``seq`` numbers only a router assigns."""
    if isinstance(value, dict):
        return {
            key: _scrub(item)
            for key, item in value.items()
            if "seconds" not in key and not key.endswith("seq")
        }
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


@pytest.mark.slow
class TestHopEquivalence:
    """What a client reads through the router hop is what the
    single-process protocol would have written: byte for byte where the
    front end forwards the worker's line, and up to ``seq`` and wall-clock
    fields where it parses it."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        single = _StdioServer()
        config = ClusterConfig(
            workers=1,
            heartbeat_interval=3600.0,
            spool=str(tmp_path_factory.mktemp("spool")),
            worker_env=_ONE_HASH_SEED,
        )
        try:
            with ClusterService(config) as cluster:
                for name in ("a", "b"):
                    line = json.dumps(dict(OPEN, session=name, id=f"open-{name}"))
                    ours = json.loads(cluster.handle_line(line))
                    assert ours["ok"], ours
                    assert _scrub(ours) == _scrub(json.loads(single.handle_line(line)))
                yield single, cluster
        finally:
            single.close()

    def both(self, pair, line):
        single, cluster = pair
        return cluster.handle_line(line), single.handle_line(line)

    @pytest.mark.parametrize(
        "request_id", [7, "seven", None, "absent", [1, "x"], "naïve-ключ"]
    )
    def test_read_only_ops_are_byte_equal_for_every_id_shape(
        self, pair, request_id
    ):
        ours, _ = self.both(
            pair, '{"op": "query", "session": "a", "predicate": "val", "limit": 1}'
        )
        row = json.loads(ours)["rows"][0]
        requests = [
            {"op": "query", "session": "a", "predicate": "val", "limit": 5},
            {"op": "query", "session": "a", "predicate": "val", "flush": True},
            {"op": "snapshot", "session": "b"},
            {"op": "snapshot", "session": "b", "views": True},
            {"op": "explain", "session": "a", "predicate": "val", "row": row},
            {"op": "whynot", "session": "a", "predicate": "val",
             "row": ["ghost", "ghost", 1]},
            {"op": "rollback", "session": "a", "predicate": "val", "row": row},
            {"op": "query", "session": "nobody", "predicate": "val"},
            {"op": "query", "session": "a", "predicate": 9},
            {"op": "frobnicate", "session": "a"},
        ]
        for request in requests:
            if request_id != "absent":
                request["id"] = request_id
            # Not sort_keys, and non-ASCII left raw: a client's own text.
            line = json.dumps(request, ensure_ascii=False)
            ours, theirs = self.both(pair, line)
            assert ours == theirs, request

    def test_stats_is_forwarded_in_canonical_form(self, pair):
        ours, theirs = self.both(pair, '{"op": "stats", "session": "a", "id": 1}')
        assert ours == json.dumps(json.loads(ours), sort_keys=True)
        ours, theirs = json.loads(ours), json.loads(theirs)
        # Only a cluster's session is durable: it alone has a spool to report.
        assert ours.pop("checkpoint")["path"] and not theirs.pop("checkpoint")["path"]
        assert _scrub(ours) == _scrub(theirs)

    def test_mutating_ops_are_equal_up_to_seq(self, pair):
        lines = [
            # Non-ASCII constants, written raw and as escapes.
            '{"op": "update", "session": "a", "id": "u1", "flush": true, '
            '"insert": {"assign_lit": [["größe→x", "m", 1], ["\\u00e9", "m", 2]]}}',
            '{"op": "update", "session": "a", '
            '"delete": {"assign_lit": [["größe→x", "m", 1]]}}',
            '{"op": "flush", "session": "a", "id": null}',
            '{"op": "update", "session": "a", "id": 3, "insert": {"p": "notalist"}}',
        ]
        for line in lines:
            ours, theirs = (json.loads(out) for out in self.both(pair, line))
            if json.loads(line)["op"] == "update":
                assert isinstance(ours.pop("seq"), int)
            assert _scrub(ours) == _scrub(theirs), line
        # A read that echoes the non-ASCII text back, escaped by the worker.
        ours, theirs = self.both(
            pair,
            '{"op": "whynot", "session": "a", "predicate": "val", '
            '"row": ["größe→x", "m", 1]}',
        )
        assert ours == theirs and "gr\\u00f6\\u00dfe\\u2192x" in ours

    def test_malformed_lines_get_the_single_process_answer(self, pair):
        from repro.service import ServiceProtocol
        from repro.service.protocol import MAX_LINE_BYTES

        # No session is involved, and a blank line has no answer to wait
        # for on a pipe: compare with the protocol object itself.
        pair = (ServiceProtocol(), pair[1])
        lines = [
            '{"op": "stats"', "[1, 2", "[1, 2, 3]", "42", "null", "", "  \n",
            '{"op": 7, "id": 1}',
            '{"op": "stats", "pad": "' + "x" * MAX_LINE_BYTES + '"}',
        ]
        for line in lines:
            ours, theirs = self.both(pair, line)
            if ours is None or theirs is None:
                assert ours is theirs
                continue
            ours, theirs = json.loads(ours), json.loads(theirs)
            assert ours["ok"] is False
            assert ours["id"] == theirs["id"]
            assert ours["error"]["type"] == theirs["error"]["type"], line

    def test_two_sessions_answer_out_of_order(self, pair):
        single, cluster = pair
        plans = {
            # Slow answers (every view rendered) against fast ones.
            "a": '{"op": "snapshot", "session": "a", "views": true, "id": "%d"}',
            "b": '{"op": "query", "session": "b", "predicate": "val", '
                 '"limit": 1, "id": "%d"}',
        }
        failures: list = []

        def client(template: str) -> None:
            for number in range(25):
                line = template % number
                if cluster.handle_line(line) != single.handle_line(line):
                    failures.append(line)

        threads = [
            threading.Thread(target=client, args=(template,), daemon=True)
            for template in plans.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert failures == []
