"""Malformed-input fuzzing of the service protocol.

Contract (protocol module docstring): bad JSON, invalid UTF-8, oversized
lines, wrong field types, unhashable row values — every hostile input
yields a *structured error response*; none may raise out of
``handle_line``/``handle`` and kill a connection thread or a cluster
worker lane, and none may leave a session half-mutated.
"""

import json
import random
import socket
import string
import threading

import pytest

from repro.service import ServiceProtocol, ServiceServer
from repro.service.protocol import MAX_LINE_BYTES


def response_of(protocol: ServiceProtocol, line: str) -> dict | None:
    out = protocol.handle_line(line)
    return None if out is None else json.loads(out)


class TestMalformedLines:
    def test_truncated_json(self):
        protocol = ServiceProtocol()
        for line in ['{"op": "stats"', '{"op": ', "[1, 2", '"unterminated']:
            response = response_of(protocol, line)
            assert response is not None and response["ok"] is False
            assert response["error"]["type"] == "ParseError"

    def test_oversized_line_rejected_before_parsing(self):
        protocol = ServiceProtocol()
        line = '{"op": "stats", "pad": "' + "x" * MAX_LINE_BYTES + '"}'
        response = response_of(protocol, line)
        assert response["ok"] is False
        assert response["error"]["type"] == "ParseError"
        assert "exceeds" in response["error"]["message"]

    def test_non_object_requests(self):
        protocol = ServiceProtocol()
        for line in ["[1, 2, 3]", '"stats"', "42", "null", "true"]:
            response = response_of(protocol, line)
            assert response["ok"] is False
            assert "must be an object" in response["error"]["message"]

    def test_blank_lines_ignored(self):
        protocol = ServiceProtocol()
        assert protocol.handle_line("") is None
        assert protocol.handle_line("   \n") is None

    def test_unknown_and_non_string_ops(self):
        protocol = ServiceProtocol()
        for op in ["frobnicate", 7, None, ["stats"], {"op": "stats"}]:
            response = protocol.handle({"op": op, "id": 1})
            assert response["ok"] is False
            assert response["id"] == 1

    def test_wrong_field_types_everywhere(self):
        protocol = ServiceProtocol()
        hostile = [
            {"op": "open", "analysis": 7, "subject": "minijavac"},
            {"op": "open", "analysis": "constprop"},  # missing subject
            {"op": "query", "predicate": 9},
            {"op": "save", "path": ["x"]},
            {"op": "restore", "path": None},
            {"op": "update", "insert": "notadict"},
            {"op": "update", "insert": {"p": "notalist"}},
            {"op": "update", "insert": {"p": [{"a": 1}]}},
            {"op": "update", "seq": "three"},
            {"op": "close", "session": 99},
        ]
        for request in hostile:
            response = protocol.handle(dict(request, id="x"))
            assert response["ok"] is False, request
            assert response["id"] == "x"
            assert "type" in response["error"]

    def test_unhashable_row_values_rejected_atomically(self, service_session):
        # Nested arrays would be unhashable downstream; the request must
        # be rejected before *any* row of the batch is enqueued.
        protocol, name = service_session
        response = protocol.handle(
            {
                "op": "update",
                "session": name,
                "insert": {"assign_lit": [["ok", "m", 1], ["bad", "m", [1]]]},
            }
        )
        assert response["ok"] is False
        stats = protocol.handle({"op": "stats", "session": name})
        assert stats["pending"] == 0  # nothing partially enqueued

    def test_random_query_limits_answer_exactly_or_refuse(self, service_session):
        # Any JSON value may arrive as ``limit``: a non-negative integer is
        # honoured exactly, everything else is refused by name — never a
        # raw TypeError from the slice, never a silently shortened answer.
        protocol, name = service_session
        query = {"op": "query", "session": name, "predicate": "val"}
        count = protocol.handle(query)["count"]
        rng = random.Random(4321)
        arms = [
            lambda: rng.randrange(-5, count + 5),
            lambda: rng.choice([-(2**63), 2**63, 10**30]),
            lambda: rng.choice([True, False]),
            lambda: rng.uniform(-3, 3),
            lambda: str(rng.randrange(0, 9)),
            lambda: [rng.randrange(0, 9)],
            lambda: {"n": rng.randrange(0, 9)},
        ]
        for _ in range(150):
            limit = rng.choice(arms)()
            response = protocol.handle(dict(query, limit=limit))
            valid = type(limit) is int and limit >= 0
            assert response["ok"] is valid, limit
            if valid:
                assert len(response["rows"]) == min(limit, count), limit
            else:
                assert response["error"]["type"] == "ServiceError", limit
                assert "'limit'" in response["error"]["message"], limit

    def test_random_garbage_never_raises(self):
        protocol = ServiceProtocol()
        rng = random.Random(1234)
        alphabet = string.printable
        for _ in range(200):
            line = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 80))
            )
            out = protocol.handle_line(line)  # must not raise
            if out is not None:
                json.loads(out)  # and must stay valid JSON


@pytest.fixture()
def service_session():
    protocol = ServiceProtocol()
    name = "fuzz"
    response = protocol.handle(
        {
            "op": "open",
            "session": name,
            "analysis": "constprop",
            "subject": "minijavac",
            "seed": 7,
        }
    )
    assert response["ok"], response
    yield protocol, name
    protocol.close()


class TestInvalidUtf8OverTcp:
    def test_invalid_utf8_gets_structured_error_not_mojibake(self):
        # Regression: the TCP handler once decoded with errors="replace",
        # silently corrupting payload bytes into U+FFFD and letting a
        # malformed request parse as a (wrong) valid one.
        server = ServiceServer("127.0.0.1", 0, ServiceProtocol())
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            with socket.create_connection(
                server.server_address, timeout=30
            ) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"op": "stats", "id": "\xff\xfe"}\n')
                f.flush()
                response = json.loads(f.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "ParseError"
                assert "UTF-8" in response["error"]["message"]
                # the connection survives and keeps serving
                f.write(b'{"op": "stats", "id": 2}\n')
                f.flush()
                assert json.loads(f.readline())["ok"] is True
        finally:
            server.shutdown()
            thread.join(timeout=30)
