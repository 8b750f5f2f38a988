"""Benchmark harness utilities: timing, distributions, memory, regression."""

from .memory import deep_sizeof
from .regression import LogLogFit, fit_time_vs_impact
from .stats import Distribution, fraction_below, percentile
from .tables import DISTRIBUTION_HEADERS, distribution_row, format_table
from .timing import (
    BenchmarkRun,
    UpdateMeasurement,
    run_update_benchmark,
    time_initialization,
)

__all__ = [
    "BenchmarkRun",
    "DISTRIBUTION_HEADERS",
    "Distribution",
    "LogLogFit",
    "UpdateMeasurement",
    "deep_sizeof",
    "distribution_row",
    "fit_time_vs_impact",
    "format_table",
    "fraction_below",
    "percentile",
    "run_update_benchmark",
    "time_initialization",
]
