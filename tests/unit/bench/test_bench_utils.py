"""Unit tests for the benchmark harness utilities."""

import math

import pytest

from repro.bench import (
    DISTRIBUTION_HEADERS,
    Distribution,
    UpdateMeasurement,
    deep_sizeof,
    distribution_row,
    fit_time_vs_impact,
    format_table,
    fraction_below,
    percentile,
    run_update_benchmark,
    time_initialization,
)
from repro.changes import Change
from repro.engines import LaddderSolver


class TestStats:
    def test_percentile_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_percentile_single(self):
        assert percentile([7.0], 99) == 7.0

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_distribution_summary(self):
        dist = Distribution.of([0.001 * i for i in range(1, 101)])
        assert dist.count == 100
        assert dist.minimum == 0.001
        assert dist.maximum == 0.1
        assert abs(dist.median - 0.0505) < 1e-9
        assert dist.q1 < dist.median < dist.q3 < dist.p99 <= dist.maximum

    def test_distribution_row_units(self):
        dist = Distribution.of([0.5])
        row = dist.row(unit=1e3)
        assert row["median"] == 500.0

    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 3) == 0.5
        assert fraction_below([], 1) == 1.0


class TestRegression:
    def _measurements(self, exponent, scale=0.001, n=50):
        return [
            UpdateMeasurement(
                label=str(i),
                seconds=scale * (i ** exponent),
                impact=i,
                work=i,
            )
            for i in range(1, n + 1)
        ]

    def test_recovers_exponent(self):
        for true_exp in (1.0, 1.5, 2.0):
            fit = fit_time_vs_impact(self._measurements(true_exp))
            assert abs(fit.exponent - true_exp) < 0.01
            assert fit.r_squared > 0.999

    def test_scale_recovered(self):
        fit = fit_time_vs_impact(self._measurements(1.5, scale=0.002))
        assert abs(fit.scale - 0.002) / 0.002 < 0.05

    def test_zero_impact_excluded(self):
        ms = self._measurements(1.5)
        ms.append(UpdateMeasurement("z", 0.5, 0, 1))
        fit = fit_time_vs_impact(ms)
        assert fit.points == 50

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            fit_time_vs_impact([UpdateMeasurement("a", 0.1, 5, 1)])

    def test_constant_impacts_raise(self):
        ms = [UpdateMeasurement(str(i), 0.1, 7, 1) for i in range(5)]
        with pytest.raises(ValueError):
            fit_time_vs_impact(ms)


class TestMemory:
    def test_deep_sizeof_grows_with_content(self):
        small = {"a": [1, 2, 3]}
        large = {"a": list(range(1000)), "b": {str(i): i for i in range(100)}}
        assert deep_sizeof(large) > deep_sizeof(small) > 0

    def test_deep_sizeof_handles_cycles(self):
        a = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_deep_sizeof_shared_counted_once(self):
        shared = list(range(1000))
        both = [shared, shared]
        one = [shared]
        assert deep_sizeof(both) < 2 * deep_sizeof(one)

    def test_deep_sizeof_slots(self):
        from repro.engines.laddder import Timeline

        t = Timeline()
        for i in range(100):
            t.add(i, 1)
        assert deep_sizeof(t) > deep_sizeof(Timeline())


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bbbb", 123456.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "123456" in lines[3]

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("== T ==")

    def test_float_formatting(self):
        text = format_table(["v"], [[0.12345], [12.345], [1234.5], [0]])
        assert "0.1235" in text or "0.1234" in text
        assert "12.35" in text or "12.34" in text
        assert "1234" in text

    def test_distribution_row_matches_headers(self):
        dist = Distribution.of([1.0, 2.0, 3.0])
        row = distribution_row("s", dist.row())
        assert len(row) == len(DISTRIBUTION_HEADERS)


class TestTimingHarness:
    def _instance(self):
        from repro.analyses.base import AnalysisInstance
        from repro.datalog import parse

        program = parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).")
        return AnalysisInstance(
            name="tc",
            program=program,
            facts={"e": {(i, i + 1) for i in range(10)}},
            primary="t",
        )

    def test_time_initialization(self):
        seconds, solver = time_initialization(
            self._instance(), LaddderSolver, repeats=2
        )
        assert seconds > 0
        assert len(solver.relation("t")) == 55

    def test_run_update_benchmark(self):
        changes = [
            Change("del", deletions={"e": frozenset({(5, 6)})}),
            Change("ins", insertions={"e": frozenset({(5, 6)})}),
        ]
        run = run_update_benchmark(self._instance(), LaddderSolver, changes)
        assert run.engine == "LaddderSolver"
        assert len(run.updates) == 2
        assert all(u.seconds >= 0 for u in run.updates)
        assert run.updates[0].impact > 0

    def test_repeats_average(self):
        changes = [
            Change("del", deletions={"e": frozenset({(5, 6)})}),
            Change("ins", insertions={"e": frozenset({(5, 6)})}),
        ]
        run = run_update_benchmark(
            self._instance(), LaddderSolver, changes, repeats=3
        )
        assert len(run.updates) == 2
