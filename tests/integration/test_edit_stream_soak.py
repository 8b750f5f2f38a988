"""Short continuous-edit soaks: the CI-sized slice of tools/soak.py.

The full-length streams live in the ``robustness`` CI job
(``tools/soak.py``); these runs are long enough to cover the
regressions the harness was built to catch — notably the settled-timeline
compaction zombie, which originally surfaced as a digest mismatch at the
step-60 checkpoint of the seed-7 constprop stream.
"""

import pytest

from repro.changes.soak import soak
from repro.config import SolverConfig


def assert_soak_ok(record):
    failed = [c["step"] for c in record["checkpoints"] if not c["match"]]
    assert record["digests_ok"], (
        f"digest mismatch at steps {failed}: {record['engine']} diverged "
        "from the from-scratch reference"
    )
    assert record["excess_ok"], (
        f"timeline excess drifted: {record['excess_series']} "
        f"(drift {record['excess_drift']:.1f} > "
        f"allowance {record['excess_allowance']:.1f})"
    )
    assert record["ok"]


class TestBareSolverSoak:
    def test_laddder_constprop_survives_seed7_stream(self):
        # The zombie regression: this exact stream's step-60 checkpoint
        # caught unrestricted compaction leaving stale Top valuations.
        record = soak(
            "minijavac", "constprop", engine="laddder",
            steps=60, seed=7, checkpoint_every=20,
            config=SolverConfig.from_env(self_check=True),
        )
        assert_soak_ok(record)
        assert len(record["checkpoints"]) == 3
        assert record["edit_counts"]["literal"] > 0
        assert record["edit_counts"]["delete"] > 0

    def test_laddder_pointsto_stream(self):
        record = soak(
            "minijavac", "pointsto-kupdate", engine="laddder",
            steps=40, seed=7, checkpoint_every=20,
            config=SolverConfig.from_env(self_check=True),
        )
        assert_soak_ok(record)

    def test_dredl_constprop_stream(self):
        record = soak(
            "minijavac", "constprop", engine="dredl",
            steps=40, seed=3, checkpoint_every=20,
        )
        assert_soak_ok(record)

    def test_seminaive_constprop_stream(self):
        record = soak(
            "minijavac", "constprop", engine="seminaive",
            steps=20, seed=3, checkpoint_every=10,
        )
        assert_soak_ok(record)


class TestSessionSoak:
    def test_session_mirror_matches_reference(self):
        record = soak(
            "minijavac", "constprop", engine="laddder",
            steps=40, seed=7, checkpoint_every=20,
            drive_session=True, flush_size=8, flush_latency=0.002,
        )
        assert_soak_ok(record)
        stats = record["session"]
        assert stats["failed_batches"] == 0
        assert stats["updates_enqueued"] > 0
        assert all(c["session_match"] for c in record["checkpoints"])
