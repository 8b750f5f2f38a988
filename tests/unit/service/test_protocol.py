"""Unit tests for the JSON-lines protocol and the session manager."""

import json

import pytest

from repro.datalog.errors import ServiceError
from repro.service import (
    PROTOCOL_VERSION,
    ServiceProtocol,
    SessionConfig,
    SessionManager,
)

CONFIG = {
    "analysis": "constprop",
    "subject": "minijavac",
    # Manual flushing keeps the worker quiet unless a test asks.
    "flush_size": 10_000,
    "flush_latency": 600.0,
}


#: A self-contained EDB edit deriving exactly one new ``val`` row: a fresh
#: flow edge whose source assigns a literal (see _VALUE_RULES in
#: repro.analyses.valueflow — assignlit alone derives nothing without flow).
INSERT = {"flow": [["n_x1", "n_x2"]], "assignlit": [["n_x1", "vz", 3]]}


@pytest.fixture
def protocol():
    proto = ServiceProtocol()
    yield proto
    proto.manager.close_all()


def open_default(proto, **extra):
    request = {"op": "open", **CONFIG, **extra}
    response = proto.handle(request)
    assert response["ok"], response
    return response


class TestManager:
    def test_double_open_rejected_but_reopen_after_close_ok(self):
        manager = SessionManager()
        config = SessionConfig(**{k: v for k, v in CONFIG.items()})
        manager.open("s", config)
        with pytest.raises(ServiceError, match="already open"):
            manager.open("s", config)
        manager.close("s")
        session = manager.open("s", config)
        session.close()

    def test_unknown_session_errors(self):
        manager = SessionManager()
        with pytest.raises(ServiceError, match="unknown session"):
            manager.get("ghost")
        with pytest.raises(ServiceError, match="unknown session"):
            manager.close("ghost")

    def test_close_all_reports_count(self):
        manager = SessionManager()
        manager.open("a", SessionConfig(**CONFIG))
        manager.open("b", SessionConfig(**CONFIG))
        assert manager.close_all() == 2
        assert manager.close_all() == 0


class TestDispatch:
    def test_open_response_shape(self, protocol):
        response = open_default(protocol, id=7)
        assert response["id"] == 7
        assert response["session"] == "default"
        assert response["protocol"] == PROTOCOL_VERSION
        assert response["engine"] == "LaddderSolver"
        assert response["snapshot_version"] == 1
        assert "val" in response["exported"]
        assert response["init_seconds"] > 0

    def test_unknown_op_and_malformed_requests(self, protocol):
        response = protocol.handle({"op": "frobnicate", "id": 1})
        assert not response["ok"]
        assert response["error"]["type"] == "ServiceError"
        assert "unknown op" in response["error"]["message"]
        assert not protocol.handle([1, 2])["ok"]
        assert not protocol.handle({"id": 2})["ok"]

    def test_errors_identify_the_request(self, protocol):
        response = protocol.handle({"op": "query", "id": 42, "predicate": "val"})
        assert response["id"] == 42
        assert not response["ok"]
        assert response["error"]["type"] == "ServiceError"
        assert "unknown session" in response["error"]["message"]

    def test_update_query_flow(self, protocol):
        open_default(protocol)
        baseline = protocol.handle({"op": "query", "predicate": "val"})
        insert = protocol.handle(
            {"op": "update", "insert": INSERT}
        )
        assert insert["ok"] and insert["pending"] == 2
        # Not flushed yet: queries still serve version 1.
        assert protocol.handle({"op": "query", "predicate": "val"})["version"] == 1
        flushed = protocol.handle({"op": "flush"})
        assert flushed["ok"] and flushed["flush"]["version"] == 2
        after = protocol.handle({"op": "query", "predicate": "val"})
        assert after["version"] == 2
        assert after["count"] == baseline["count"] + 1

    def test_update_with_inline_flush(self, protocol):
        open_default(protocol)
        response = protocol.handle(
            {
                "op": "update",
                "insert": INSERT,
                "flush": True,
            }
        )
        assert response["ok"]
        assert response["flush"]["ok"] and response["flush"]["version"] == 2

    def test_query_with_flush_first(self, protocol):
        open_default(protocol)
        protocol.handle(
            {"op": "update", "insert": INSERT}
        )
        response = protocol.handle(
            {"op": "query", "predicate": "val", "flush": True, "limit": 5}
        )
        assert response["ok"] and response["version"] == 2
        assert len(response["rows"]) == 5

    def test_update_validation(self, protocol):
        open_default(protocol)
        bad_shape = protocol.handle({"op": "update", "insert": [1, 2]})
        assert not bad_shape["ok"]
        assert "must be an object" in bad_shape["error"]["message"]
        bad_rows = protocol.handle({"op": "update", "insert": {"p": "nope"}})
        assert not bad_rows["ok"]
        bad_row = protocol.handle({"op": "update", "insert": {"p": [7]}})
        assert not bad_row["ok"]
        assert "rows must be arrays" in bad_row["error"]["message"]

    def test_query_requires_predicate(self, protocol):
        open_default(protocol)
        response = protocol.handle({"op": "query"})
        assert not response["ok"]
        assert "predicate" in response["error"]["message"]
        unknown = protocol.handle({"op": "query", "predicate": "ghost"})
        assert not unknown["ok"]
        assert unknown["error"]["type"] == "ServiceError"

    def test_query_limit_is_validated(self, protocol):
        """Regression: ``limit`` went unchecked into a slice, so -1 answered
        ``ok`` with the last row dropped, "3"/2.5 surfaced a raw TypeError
        and ``true`` read as 1."""
        open_default(protocol)
        count = protocol.handle({"op": "query", "predicate": "val"})["count"]
        for bad in (-1, "3", 2.5, True, False, [1], {"n": 1}):
            response = protocol.handle(
                {"op": "query", "predicate": "val", "limit": bad}
            )
            assert not response["ok"], bad
            assert response["error"]["type"] == "ServiceError", bad
            assert "'limit'" in response["error"]["message"], bad
        for limit, want in ((0, 0), (3, 3), (count + 5, count), (None, count)):
            response = protocol.handle(
                {"op": "query", "predicate": "val", "limit": limit}
            )
            assert response["ok"] and response["count"] == count
            assert len(response["rows"]) == want

    def test_snapshot_op(self, protocol):
        open_default(protocol)
        response = protocol.handle({"op": "snapshot"})
        assert response["ok"] and response["version"] == 1
        assert response["counts"]["val"] > 0
        assert "views" not in response
        with_views = protocol.handle({"op": "snapshot", "views": True})
        assert len(with_views["views"]["val"]) == with_views["counts"]["val"]

    def test_save_restore_ops(self, protocol, tmp_path):
        open_default(protocol)
        path = str(tmp_path / "svc.ckpt")
        assert not protocol.handle({"op": "save"})["ok"]  # path required
        saved = protocol.handle({"op": "save", "path": path})
        assert saved["ok"] and saved["bytes"] > 0
        restored = protocol.handle({"op": "restore", "path": path})
        assert restored["ok"] and restored["version"] == 2
        missing = protocol.handle(
            {"op": "restore", "path": str(tmp_path / "nope.ckpt")}
        )
        assert not missing["ok"]

    def test_stats_server_wide_and_per_session(self, protocol):
        listing = protocol.handle({"op": "stats"})
        assert listing["ok"] and listing["sessions"] == []
        assert listing["protocol"] == PROTOCOL_VERSION
        open_default(protocol, session="alpha")
        listing = protocol.handle({"op": "stats"})
        assert listing["sessions"] == ["alpha"]
        detail = protocol.handle({"op": "stats", "session": "alpha"})
        assert detail["ok"] and detail["engine"] == "LaddderSolver"
        assert detail["metrics"]["service"]["snapshots_published"] == 1
        # Nothing has been read yet, so nothing has been rendered.
        assert detail["metrics"]["service"]["renders"] == 0

    def test_named_sessions_are_independent(self, protocol):
        open_default(protocol, session="a")
        open_default(protocol, session="b")
        protocol.handle(
            {
                "op": "update",
                "session": "a",
                "insert": INSERT,
                "flush": True,
            }
        )
        assert protocol.handle({"op": "query", "session": "a", "predicate": "val"})[
            "version"
        ] == 2
        assert protocol.handle({"op": "query", "session": "b", "predicate": "val"})[
            "version"
        ] == 1

    def test_close_and_shutdown(self, protocol):
        open_default(protocol)
        closed = protocol.handle({"op": "close"})
        assert closed["ok"] and closed["closed"]
        assert not protocol.handle({"op": "query", "predicate": "val"})["ok"]
        assert not protocol.shutdown_requested
        response = protocol.handle({"op": "shutdown"})
        assert response["ok"] and response["closing"]
        assert protocol.shutdown_requested

    def test_open_rejects_bad_config_fields(self, protocol):
        response = protocol.handle({"op": "open", "analysis": "constprop"})
        assert not response["ok"] and "subject" in response["error"]["message"]
        response = protocol.handle(
            {"op": "open", **CONFIG, "engine": "warp-drive"}
        )
        assert not response["ok"]
        assert "unknown engine" in response["error"]["message"]

    def test_retired_checkpoint_every_is_ignored_like_any_unknown_field(
        self, protocol, tmp_path
    ):
        # The cadence knob is gone; a client that still sends it is served
        # as if it had not (and an invalid value is no longer an error).
        opened = open_default(
            protocol, checkpoint_every=0, no_such_field=1,
            checkpoint_path=str(tmp_path / "s.ckpt"),
        )
        assert opened["durable_seq"] == 0
        stats = protocol.handle({"op": "stats", "session": "default"})
        assert stats["checkpoint"]["every"] is None
        updated = protocol.handle(
            {"op": "update", "insert": INSERT, "flush": True, "seq": 3}
        )
        assert updated["ok"] and updated["durable_seq"] == 3


class TestLineTransport:
    def test_handle_line_roundtrip(self, protocol):
        line = json.dumps({"op": "stats", "id": 1})
        response = json.loads(protocol.handle_line(line))
        assert response == {
            "id": 1,
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "sessions": [],
        }

    def test_blank_lines_skipped_and_bad_json_reported(self, protocol):
        assert protocol.handle_line("") is None
        assert protocol.handle_line("   \n") is None
        response = json.loads(protocol.handle_line("{not json"))
        assert not response["ok"]
        assert response["error"]["type"] == "ParseError"
        assert response["id"] is None

    def test_responses_are_single_json_lines(self, protocol):
        line = json.dumps({"op": "open", **CONFIG, "id": 9})
        raw = protocol.handle_line(line)
        assert "\n" not in raw
        assert json.loads(raw)["ok"]
