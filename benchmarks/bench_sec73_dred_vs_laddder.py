"""Section 7.3 — DRedL vs Laddder on minijavac (experiments E6/E7).

The paper compares the two fixpoint algorithms behind the same front end on
set-based points-to, constant propagation, and interval analysis (the
k-update analysis cannot run on DRedL).  Reproduced claims:

* Laddder's update times beat DRedL's and are more consistent (smaller
  spread), most dramatically on deletion-heavy points-to changes;
* DRedL's from-scratch initialization is *faster* than Laddder's (no
  timeline maintenance) — "the overhead of Laddder ranges between 15%
  up to 86%" on the JVM; we report our measured overhead alongside.
"""

import pytest

from repro.analyses import constant_propagation, interval_analysis, setbased_pointsto
from repro.bench import (
    DISTRIBUTION_HEADERS,
    Distribution,
    distribution_row,
    format_table,
)
from repro.changes import alloc_site_changes, literal_to_zero_changes
from repro.engines import DRedLSolver, LaddderSolver

from common import FRESH_SOLVERS, make_changes, min_over_fresh_solvers, report, subject

SERIES = {
    "pointsto-setbased": (setbased_pointsto, alloc_site_changes),
    "constprop": (constant_propagation, literal_to_zero_changes),
    "interval": (interval_analysis, literal_to_zero_changes),
}


def _compare(analysis_name):
    build, generator = SERIES[analysis_name]
    instance = build(subject("minijavac"))
    changes = make_changes(generator, instance, seed=9)
    return min_over_fresh_solvers(instance, (DRedLSolver, LaddderSolver), changes)


@pytest.mark.parametrize("analysis_name", list(SERIES))
def test_sec73_update_comparison(benchmark, analysis_name):
    runs = benchmark.pedantic(_compare, args=(analysis_name,), rounds=1, iterations=1)
    rows = []
    for engine_name, run in runs.items():
        dist = Distribution.of(run.update_times())
        rows.append(distribution_row(engine_name, dist.row(unit=1e3)))
    table = format_table(
        DISTRIBUTION_HEADERS,
        rows,
        title=f"Section 7.3 — update times (ms) on minijavac, {analysis_name} "
        f"(each change: min over {FRESH_SOLVERS} fresh solvers)",
    )
    init_rows = [
        [name, f"{run.init_seconds * 1e3:.1f}"] for name, run in runs.items()
    ]
    overhead = (
        runs["LaddderSolver"].init_seconds / max(runs["DRedLSolver"].init_seconds, 1e-9)
        - 1.0
    )
    init_table = format_table(
        ["engine", "init (ms)"],
        init_rows,
        title=f"Section 7.3 — initialization, {analysis_name} "
        f"(Laddder overhead {overhead:+.0%}; paper: +15%..+86%)",
    )
    report(f"sec73_{analysis_name}", table + "\n\n" + init_table)

    dred = Distribution.of(runs["DRedLSolver"].update_times())
    ladder = Distribution.of(runs["LaddderSolver"].update_times())
    # "Laddder achieves faster update times and it does so more
    # consistently": cheaper on average and a much tighter interquartile
    # spread.  The extreme tail is only loosely bounded: Section 8 concedes
    # that "it is possible to construct inputs that force either solution
    # to do significantly more work", and with 40 samples p99 is a single
    # change.
    assert ladder.mean < dred.mean * 1.05
    assert (ladder.q3 - ladder.q1) <= (dred.q3 - dred.q1)


def test_sec73_kupdate_only_on_laddder(benchmark):
    """The expressiveness claim: the k-update analysis relies on relaxed
    (eventual) monotonicity.  Ross-Sagiv-mode DRedL has no termination
    guarantee for it, so the paper reverts to set-based points-to for the
    comparison — as does this benchmark file."""
    from repro.analyses import kupdate_pointsto

    def run():
        instance = kupdate_pointsto(subject("minijavac"))
        solver = instance.make_solver(LaddderSolver)
        return len(solver.relation("ptlub"))

    tuples = benchmark.pedantic(run, rounds=1, iterations=1)
    assert tuples > 0
