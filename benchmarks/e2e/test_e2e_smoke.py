"""Smoke tests of the benchmark itself (not part of tier 1):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from reduce import min_over_passes, percentile, spread

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_min_over_passes_takes_the_column_minimum():
    assert min_over_passes([[3.0, 1.0, 5.0], [2.0, 4.0, 5.0]]) == [2.0, 1.0, 5.0]
    assert min_over_passes([]) == []


def test_min_over_passes_rejects_passes_that_did_different_work():
    with pytest.raises(ValueError, match="deterministic"):
        min_over_passes([[1.0, 2.0], [1.0]])


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 11)]  # 1..10
    assert percentile(samples, 0.50) == 5.0
    assert percentile(samples, 0.90) == 9.0
    assert percentile(samples, 1.00) == 10.0
    assert percentile(list(reversed(samples)), 0.10) == 1.0
    # 0.9 * 300 is 270.00000000000006 in floating point: still rank 270.
    assert percentile([float(i) for i in range(1, 301)], 0.90) == 270.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(samples, 0.0)


def test_spread_is_interquartile_distance_over_median():
    values = [float(i) for i in range(1, 12)]  # quartiles 3, 6, 9
    assert spread(values) == pytest.approx(1.0)
    assert spread([5.0] * 10) == 0.0


def test_a_failed_response_is_counted():
    run._bootstrap()
    import harness
    from workloads import WORKLOADS as TABLE

    class Refusing:
        def roundtrip(self, line):
            request = json.loads(line)
            if request["op"] == "update":
                return json.dumps({"ok": True, "flush": {"ok": False, "error": "x"}})
            return json.dumps({"ok": False, "error": {"type": "ServiceError"}})

        def session_names(self, count):
            return ["s0"]

    rung = harness.WireRung(
        "protocol", TABLE["ide-constprop-laddder"], harness.Tracer(), "val", Refusing
    )
    rung.open(0)
    rung.call("query", {"op": "query"})
    rung.call("update", {"op": "update"})
    assert (rung.requests, rung.failed) == (3, 3)
    assert len(rung.errors) == 3


def test_repro_environment_is_refused(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "object")
    with pytest.raises(SystemExit, match="REPRO_BACKEND"):
        run.main(["--workload", WORKLOADS[0], "--cycles", "20", "--passes", "2"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported_with_its_unit(workload, trace, capsys):
    code = run.main([
        "--workload", workload, "--seed", "7", "--cycles", "20",
        "--passes", "2", "--trace", str(trace),
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
