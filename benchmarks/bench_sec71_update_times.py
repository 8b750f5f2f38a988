"""Section 7.1 (RQ1) — Laddder incremental update times, per analysis and
subject (the paper's boxplots; experiment E2 in DESIGN.md).

Initialize once, apply every synthesized change as one epoch, and summarize
the update-time distribution (min/q1/median/q3/p99/max in milliseconds).
The reproduced claims: the vast majority of changes are processed in
small-millisecond time, the distribution is heavily skewed with rare
expensive outliers, and >=99% stay under an interactive threshold.
"""

import pytest

from repro.bench import (
    DISTRIBUTION_HEADERS,
    Distribution,
    distribution_row,
    format_table,
    fraction_below,
    run_update_benchmark,
)
from repro.engines import LaddderSolver

from common import ANALYSIS_SERIES, SUBJECTS, make_changes, report, subject


def _series(analysis_name):
    build, generator = ANALYSIS_SERIES[analysis_name]
    rows = []
    checks = []
    for subject_name in SUBJECTS:
        instance = build(subject(subject_name))
        changes = make_changes(generator, instance)
        run = run_update_benchmark(instance, LaddderSolver, changes)
        dist = Distribution.of(run.update_times())
        rows.append(distribution_row(subject_name, dist.row(unit=1e3)))
        checks.append(
            (
                dist.median,
                fraction_below(run.update_times(), 0.1),
                fraction_below(run.update_times(), 1.0),
            )
        )
    return rows, checks


@pytest.mark.parametrize("analysis_name", list(ANALYSIS_SERIES))
def test_sec71_update_times(benchmark, analysis_name):
    rows, checks = benchmark.pedantic(
        _series, args=(analysis_name,), rounds=1, iterations=1
    )
    table = format_table(
        DISTRIBUTION_HEADERS,
        rows,
        title=f"Section 7.1 — Laddder update times (ms), {analysis_name}",
    )
    report(f"sec71_updates_{analysis_name}", table)
    # The paper's claims, on our substrate: typical updates are
    # small-millisecond ("virtually all code changes within 10 ms" on the
    # JVM), the vast majority stay interactive (<100 ms), and the rare
    # outliers stay within the sub-second band that covered 99% of the
    # paper's changes (theirs peaked at 50 s on far larger corpora).
    for median, under_100ms, under_1s in checks:
        assert median <= 0.05
        assert under_100ms >= 0.8
        assert under_1s >= 0.95
