"""The soak flatness gate: oscillation passes, a per-edit leak fails.

The gate fits a least-squares slope to the Laddder timeline excess and
projects it over the stream (docs/SOAK.md).  Sampled only at two
checkpoints, the slope is a single difference, and an oscillating stream
reads as drift; sampled after every step, it does not.
"""

import itertools

from repro.changes.soak import soak
from repro.engines import LaddderSolver
from repro.engines.laddder.state import TimedRelation


def test_oscillating_stream_passes_with_two_checkpoints():
    # Checkpoint excess is [0, 26] against a baseline of 27: fitted to
    # those two samples the slope projects 52, twice the allowance.
    record = soak(
        "minijavac", "pointsto-kupdate", engine="laddder",
        steps=100, seed=11, checkpoint_every=50,
    )
    assert record["digests_ok"]
    assert record["ok"]
    assert len(record["excess_series"]) == 100


def test_injected_timeline_leak_fails_the_gate(monkeypatch):
    # One extra timeline entry per edit, on a relation no rule reads:
    # the answers stay exact, only the state grows.
    update = LaddderSolver.update
    timestamps = itertools.count(1)

    def leaky_update(self, *args, **kwargs):
        stats = update(self, *args, **kwargs)
        leak = self._states[0].relations.setdefault("leak", TimedRelation(1))
        leak.add_delta(("x",), next(timestamps), 1)
        return stats

    monkeypatch.setattr(LaddderSolver, "update", leaky_update)
    record = soak(
        "minijavac", "pointsto-kupdate", engine="laddder",
        steps=40, seed=7, checkpoint_every=20,
    )
    assert record["digests_ok"]
    assert record["excess_drift"] > record["excess_allowance"]
    assert not record["excess_ok"]
    assert not record["ok"]
