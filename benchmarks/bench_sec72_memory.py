"""Section 7.2 (RQ2) — memory use of Laddder (experiment E5 in DESIGN.md).

The paper measures reachable JVM heap after initialization: points-to
3.7-8.7 GB, constant propagation 0.6-2.3 GB, interval 0.8-2.9 GB, and
observes that memory stays roughly constant across program changes.  We
measure the deep size of the solver state (the Python analogue) plus the
engine-reported abstract state cells, and re-check stability under a change
series.  Reproduced shape: memory grows with subject size, Laddder holds
more state than the from-scratch baseline (timelines are the price of
incrementality, Section 8), and updates leave memory roughly unchanged.
"""


import pytest

from repro.bench import deep_sizeof, format_table, run_update_benchmark
from repro.engines import LaddderSolver, SemiNaiveSolver

from common import ANALYSIS_SERIES, SUBJECTS, make_changes, report, subject


def _measure():
    rows = []
    checks = []
    for analysis_name, (build, generator) in ANALYSIS_SERIES.items():
        for subject_name in SUBJECTS:
            instance = build(subject(subject_name))
            ladder = instance.make_solver(LaddderSolver)
            baseline = instance.make_solver(SemiNaiveSolver)
            before_mb = deep_sizeof(ladder) / 1e6
            cells = ladder.state_size()
            changes = make_changes(generator, instance, seed=5)[:10]
            for change in changes:
                ladder.update(
                    insertions=change.insertions, deletions=change.deletions
                )
            after_mb = deep_sizeof(ladder) / 1e6
            baseline_mb = deep_sizeof(baseline) / 1e6
            rows.append(
                [
                    analysis_name,
                    subject_name,
                    f"{before_mb:.1f}",
                    f"{after_mb:.1f}",
                    f"{baseline_mb:.1f}",
                    cells,
                ]
            )
            checks.append((before_mb, after_mb, baseline_mb))
    return rows, checks


def test_sec72_memory(benchmark):
    rows, checks = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = format_table(
        ["analysis", "subject", "init MB", "after-changes MB",
         "from-scratch MB", "state cells"],
        rows,
        title="Section 7.2 — Laddder memory (deep sizeof of solver state)",
    )
    report("sec72_memory", table)
    for before, after, baseline in checks:
        # "Throughout the program changes, the memory use of Laddder
        # remained roughly the same."
        assert after <= before * 2.0 + 1.0
        # Timelines cost memory but must stay within a small factor of the
        # non-incremental state ("large, but not prohibitive").
        assert before <= baseline * 25 + 1.0

