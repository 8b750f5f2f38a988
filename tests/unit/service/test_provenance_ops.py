"""Unit tests for the provenance protocol ops: explain, whynot, rollback.

All three route like ``query`` — per-session, snapshot-consistent, no
cluster involvement — and are documented in docs/SERVICE.md with JSON
shapes committed in docs/explain_schema.json.
"""

import pytest

from repro.service import ServiceProtocol

CONFIG = {
    "analysis": "constprop",
    "subject": "minijavac",
    "flush_size": 10_000,
    "flush_latency": 600.0,
    # Sent by clients written while capture was opt-in: ignored like any
    # unknown ``open`` field.
    "provenance": True,
}


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


def first_row(proto, pred="val"):
    """A rendered row exactly as a client would read it back."""
    response = proto.handle({"op": "query", "predicate": pred, "limit": 1})
    assert response["ok"], response
    return response["rows"][0]


class TestExplainOp:
    def test_explain_round_trips_query_rows(self, protocol):
        open_default(protocol)
        row = first_row(protocol)
        response = protocol.handle(
            {"op": "explain", "predicate": "val", "row": row}
        )
        assert response["ok"], response
        assert response["predicate"] == "val"
        assert response["version"] == 1
        assert response["size"] >= 1 and response["height"] >= 0
        tree = response["derivation"]
        assert tree["pred"] == "val"
        assert tree["row"] == row

    def test_explain_respects_bounds(self, protocol):
        open_default(protocol)
        row = first_row(protocol)
        response = protocol.handle(
            {
                "op": "explain",
                "predicate": "val",
                "row": row,
                "depth": 1,
                "max_nodes": 2,
            }
        )
        assert response["ok"]

        def count(node):
            return 1 + sum(count(p) for p in node["premises"])

        assert count(response["derivation"]) <= 2

    def test_absent_row_points_at_whynot(self, protocol):
        open_default(protocol)
        response = protocol.handle(
            {"op": "explain", "predicate": "val", "row": ["ghost", "Bot"]}
        )
        assert not response["ok"]
        assert "use whynot" in response["error"]["message"]

    def test_validation(self, protocol):
        open_default(protocol)
        missing_row = protocol.handle({"op": "explain", "predicate": "val"})
        assert not missing_row["ok"]
        assert "row" in missing_row["error"]["message"]
        bad_row = protocol.handle(
            {"op": "explain", "predicate": "val", "row": "v0"}
        )
        assert not bad_row["ok"]
        nested = protocol.handle(
            {"op": "explain", "predicate": "val", "row": [["v0"]]}
        )
        assert not nested["ok"]
        assert "scalars" in nested["error"]["message"]
        bad_depth = protocol.handle(
            {
                "op": "explain",
                "predicate": "val",
                "row": ["x"],
                "depth": "deep",
            }
        )
        assert not bad_depth["ok"]
        out_of_range = protocol.handle(
            {
                "op": "explain",
                "predicate": "val",
                "row": ["x"],
                "depth": 10_000,
            }
        )
        assert not out_of_range["ok"]


class TestWhynotOp:
    def test_frontier_for_absent_tuple(self, protocol):
        open_default(protocol)
        response = protocol.handle(
            {"op": "whynot", "predicate": "val", "row": ["ghost", "vg", None]}
        )
        assert response["ok"], response
        report = response["report"]
        assert report["pred"] == "val"
        assert report["reason"] in ("frontier", "no-rule")

    def test_input_fact_absent(self, protocol):
        open_default(protocol)
        response = protocol.handle(
            {
                "op": "whynot",
                "predicate": "flow",
                "row": ["nowhere_a", "nowhere_b"],
            }
        )
        assert response["ok"]
        assert response["report"]["reason"] == "input-fact-absent"

    def test_present_tuple_rejected(self, protocol):
        open_default(protocol)
        # whynot takes raw scalars; a row read back from query is rendered,
        # so probe with a tuple we know is derived via explain first.
        row = first_row(protocol)
        explained = protocol.handle(
            {"op": "explain", "predicate": "val", "row": row}
        )
        assert explained["ok"]


class TestRollbackOp:
    def test_suggestions_and_digest_stability(self, protocol):
        open_default(protocol)
        digest = protocol.handle({"op": "snapshot"})["digest"]
        row = first_row(protocol)
        response = protocol.handle(
            {"op": "rollback", "predicate": "val", "row": row}
        )
        assert response["ok"], response
        assert response["suggestions"], "a val tuple has input support"
        suggestion = response["suggestions"][0]
        assert suggestion["verified"] is True
        assert suggestion["edits"]
        # Probing applied and undid real updates under the solver lock:
        # the published snapshot digests bit-equal.
        assert protocol.handle({"op": "snapshot"})["digest"] == digest

    def test_absent_row_rejected(self, protocol):
        open_default(protocol)
        response = protocol.handle(
            {"op": "rollback", "predicate": "val", "row": ["ghost", "Bot"]}
        )
        assert not response["ok"]
        assert "nothing to roll back" in response["error"]["message"]

    def test_suggestion_applies_over_the_wire(self, protocol):
        open_default(protocol)
        row = first_row(protocol)
        response = protocol.handle(
            {"op": "rollback", "predicate": "val", "row": row}
        )
        suggestion = response["suggestions"][0]
        deletions = {}
        for edit in suggestion["edits"]:
            deletions.setdefault(edit["pred"], []).append(edit["row"])
        applied = protocol.handle(
            {"op": "update", "delete": deletions, "flush": True}
        )
        assert applied["ok"], applied
        after = protocol.handle({"op": "query", "predicate": "val"})
        assert row not in after["rows"]


class TestConfigAndSessions:
    def test_provenance_config_field_accepted(self, protocol):
        response = open_default(protocol, session="p")
        assert response["ok"]
        stats = protocol.handle({"op": "stats", "session": "p"})
        assert stats["ok"]
        assert "provenance" not in stats["solver_config"]

    def test_ops_work_without_provenance_annotations(self, protocol):
        # Nothing is captured by any session, whatever ``open`` sent.
        response = protocol.handle(
            {"op": "open", **{**CONFIG, "provenance": False}}
        )
        assert response["ok"]
        row = first_row(protocol)
        explained = protocol.handle(
            {"op": "explain", "predicate": "val", "row": row}
        )
        assert explained["ok"]

    def test_unknown_session_reported(self, protocol):
        response = protocol.handle(
            {"op": "explain", "session": "ghost", "predicate": "val",
             "row": ["x"]}
        )
        assert not response["ok"]
        assert "unknown session" in response["error"]["message"]
