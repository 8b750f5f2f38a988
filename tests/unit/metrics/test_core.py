"""Unit tests for the solver observability substrate."""

import json

from repro.metrics import NULL_SINK, SolverMetrics, TraceSink
from repro.metrics.core import StratumStats


class RecordingSink(TraceSink):
    """Collects every event as (name, args) tuples."""

    def __init__(self):
        self.events = []

    def on_stratum_start(self, index, predicates):
        self.events.append(("stratum_start", index, predicates))

    def on_stratum_end(self, index, seconds):
        self.events.append(("stratum_end", index, seconds))

    def on_rule_fired(self, rule, derived, deduplicated, seconds):
        self.events.append(("rule_fired", rule, derived, deduplicated))

    def on_delta(self, index, round_no, size):
        self.events.append(("delta", index, round_no, size))

    def on_compensation(self, pred, row, timestamp, delta):
        self.events.append(("compensation", pred, row, timestamp, delta))


class TestActivation:
    def test_enabled_by_default(self):
        assert SolverMetrics().active

    def test_disabled(self):
        m = SolverMetrics(enabled=False)
        assert not m.active
        assert m.sink is NULL_SINK

    def test_custom_sink_activates_disabled_metrics(self):
        m = SolverMetrics(enabled=False, sink=RecordingSink())
        assert m.active

    def test_null_sink_methods_are_noops(self):
        NULL_SINK.on_stratum_start(0, ("p",))
        NULL_SINK.on_rule_fired("r", 1, 2, 0.1)
        NULL_SINK.on_compensation("p", (1,), 0, 1)


class TestRecording:
    def test_stratum_get_or_create(self):
        m = SolverMetrics()
        s1 = m.stratum(0, ["b", "a"])
        s2 = m.stratum(0, ["a", "b"])
        assert s1 is s2
        assert s1.predicates == ("a", "b")

    def test_rule_fired_accumulates(self):
        m = SolverMetrics()
        s = m.stratum(0, ["p"])
        m.rule_fired("r1", 3, 1, 0.5, s)
        m.rule_fired("r1", 2, 0, 0.25, s)
        stats = m.rules["r1"]
        assert stats.fired == 6
        assert stats.derived == 5
        assert stats.deduplicated == 1
        assert stats.seconds == 0.75
        assert m.tuples_derived == 5
        assert m.tuples_deduplicated == 1
        assert s.tuples_derived == 5

    def test_rule_fired_count_false_records_per_rule_only(self):
        # The incremental engines enumerate substitutions here but count
        # physical inserts at the worklist — totals must not double.
        m = SolverMetrics()
        s = m.stratum(0, ["p"])
        m.rule_fired("r", 0, 0, 0.1, s, count=False, fired=7)
        assert m.rules["r"].fired == 7
        assert m.rules_fired == 7
        assert m.tuples_derived == 0
        assert s.tuples_derived == 0

    def test_derivations_without_rule(self):
        m = SolverMetrics()
        s = m.stratum(2, ["agg"])
        m.derivations(s, 4, 1)
        assert m.tuples_derived == 4
        assert m.tuples_deduplicated == 1
        assert s.tuples_derived == 4

    def test_round_delta_tracks_rounds(self):
        m = SolverMetrics()
        s = m.stratum(0, ["p"])
        m.round_delta(s, 5)
        m.round_delta(s, 2)
        m.round_delta(s, 0)
        assert s.rounds == 3
        assert s.delta_sizes == [5, 2, 0]

    def test_queue_depth_keeps_max(self):
        m = SolverMetrics()
        m.queue_depth(3)
        m.queue_depth(9)
        m.queue_depth(4)
        assert m.max_queue_depth == 9

    def test_compensation_counts_support_updates(self):
        m = SolverMetrics()
        m.compensation("p", (1,), 3, -1)
        m.compensation("p", (1,), 4, 1)
        assert m.support_updates == 2

    def test_reset(self):
        m = SolverMetrics()
        m.engine = "X"
        m.rule_fired("r", 1, 0, 0.1, m.stratum(0, ["p"]))
        m.reset()
        assert m.tuples_derived == 0
        assert not m.strata and not m.rules
        assert m.engine == "X"  # identity survives reset


class TestSinkDispatch:
    def test_events_flow_to_sink(self):
        sink = RecordingSink()
        m = SolverMetrics(sink=sink)
        s = m.stratum(1, ["p", "q"])
        m.rule_fired("r", 2, 1, 0.1, s)
        m.round_delta(s, 2)
        m.compensation("p", (1, 2), 5, -1)
        m.stratum_end(s, 0.2)
        names = [e[0] for e in sink.events]
        assert names == [
            "stratum_start", "rule_fired", "delta", "compensation", "stratum_end",
        ]
        assert sink.events[0] == ("stratum_start", 1, ("p", "q"))
        assert sink.events[2] == ("delta", 1, 1, 2)
        assert sink.events[3] == ("compensation", "p", (1, 2), 5, -1)


class TestExport:
    def test_to_dict_schema_and_json(self):
        m = SolverMetrics()
        m.engine = "TestSolver"
        s = m.stratum(0, ["p"])
        m.rule_fired("r", 1, 0, 0.1, s)
        m.round_delta(s, 1)
        m.stratum_end(s, 0.1)
        m.join_probes = 10
        d = m.to_dict()
        assert set(d) == {
            "engine", "totals", "laddder", "storage", "compile", "check",
            "impact", "strata", "rules", "robustness", "service",
            "provenance",
        }
        assert d["engine"] == "TestSolver"
        assert d["totals"]["join_probes"] == 10
        assert set(d["storage"]) == {"batch_rows_emitted"}
        assert set(d["robustness"]) == {
            "rollbacks",
            "fallback_resolves",
            "watchdog_trips",
            "selfcheck_seconds",
        }
        assert set(d["compile"]) == {
            "rules_compiled",
            "compile_seconds",
            "plan_cache_hits",
            "plan_cache_misses",
            "replans_triggered",
        }
        assert set(d["check"]) == {
            "check_seconds",
            "diagnostics_emitted",
            "dead_rules_pruned",
        }
        assert set(d["impact"]) == {
            "impact_seconds",
            "strata_skipped",
            "rules_skipped_by_impact",
        }
        assert set(d["provenance"]) == {
            "provenance_annotations",
            "provenance_hits",
            "provenance_fallbacks",
            "provenance_explains",
            "provenance_whynots",
            "provenance_seconds",
        }
        assert d["strata"][0]["delta_sizes"] == [1]
        assert d["rules"]["r"]["derived"] == 1
        json.dumps(d)  # must be directly serializable


class TestDeltaWindowFolding:
    """Bounded per-round history: long-lived sessions must not accrete
    one ``delta_sizes`` entry per fixpoint round forever."""

    def test_window_stays_bounded_over_many_rounds(self):
        m = SolverMetrics()
        s = m.stratum(0, ["p"])
        for i in range(600):
            m.round_delta(s, i % 7)
        assert len(s.delta_sizes) < StratumStats.DELTA_WINDOW

    def test_folding_preserves_totals(self):
        m = SolverMetrics()
        s = m.stratum(0, ["p"])
        sizes = [(i * 13) % 11 for i in range(1300)]
        for size in sizes:
            m.round_delta(s, size)
        assert s.rounds == len(sizes)
        assert s.rounds == len(s.delta_sizes) + s.delta_rounds_folded
        assert sum(s.delta_sizes) + s.delta_tuples_folded == sum(sizes)
        assert s.delta_max == max(sizes)

    def test_fold_oldest_folds_oldest_half(self):
        s = StratumStats(index=0, predicates=("p",))
        s.delta_sizes.extend([9, 8, 1, 2])
        s.fold_oldest()
        assert s.delta_sizes == [1, 2]
        assert s.delta_rounds_folded == 2
        assert s.delta_tuples_folded == 17

    def test_to_dict_reports_folding_counters(self):
        m = SolverMetrics()
        s = m.stratum(0, ["p"])
        for _ in range(StratumStats.DELTA_WINDOW):
            m.round_delta(s, 1)
        d = s.to_dict()
        assert d["delta_rounds_folded"] > 0
        assert d["delta_rounds_folded"] + len(d["delta_sizes"]) == s.rounds
        assert d["delta_max"] == 1
