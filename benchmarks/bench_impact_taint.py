"""Extension — impact-guided update scheduling on a sparse edit series.

The one series on which the ``ImpactIndex`` is known to pay for itself
(ROADMAP, "ImpactIndex on trial"): ``taint`` on minijavac, edited through
``taintsink`` alone in delete/reinsert waves.  The footprint of such an
edit is the final reporting stratum, so the guided run (the default)
dodges the points-to and taint-propagation fixpoints that
``SolverConfig(impact=False)`` re-enters every epoch.

The table reports both wall times, the strata skipped and the index's
own overhead; the only assertion is that both runs export the same
relations.
"""

from time import perf_counter

from repro.analyses import taint_analysis
from repro.bench import format_table
from repro.config import SolverConfig
from repro.engines import SemiNaiveSolver
from repro.metrics import SolverMetrics

from common import report, subject

EDITED_PRED = "taintsink"
WAVES = 6


def _edit_series(instance):
    """Delete/reinsert waves over ``EDITED_PRED`` rows only — the sparsest
    edit the analysis admits."""
    rows = sorted(instance.facts[EDITED_PRED])
    series = []
    for wave_no in range(WAVES):
        wave = rows[wave_no % len(rows):][: 3 + wave_no] or rows[:1]
        series.append(({EDITED_PRED: wave}, None))
        series.append((None, {EDITED_PRED: wave}))
    return series


def _run(instance, series, guided):
    metrics = SolverMetrics()
    solver = instance.make_solver(
        SemiNaiveSolver, metrics=metrics, config=SolverConfig(impact=guided)
    )
    t0 = perf_counter()
    for deletions, insertions in series:
        solver.update(insertions=insertions, deletions=deletions)
    return solver.relations(), metrics, perf_counter() - t0


def _measure():
    instance = taint_analysis(subject("minijavac"))
    series = _edit_series(instance)
    guided_rel, guided, guided_s = _run(instance, series, True)
    plain_rel, plain, plain_s = _run(instance, series, False)
    rows = [
        [
            label,
            len(series),
            f"{seconds * 1e3:.1f}",
            metrics.strata_skipped,
            f"{metrics.impact_seconds * 1e3:.2f}",
        ]
        for label, metrics, seconds in (
            ("guided", guided, guided_s),
            ("unguided (impact=False)", plain, plain_s),
        )
    ]
    return rows, guided_rel == plain_rel, plain_s / guided_s


def test_impact_taint(benchmark):
    rows, bit_equal, ratio = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = format_table(
        ["run", "epochs", "updates (ms)", "strata skipped", "impact index (ms)"],
        rows,
        title=f"Impact-guided scheduling — taint via {EDITED_PRED}, minijavac, "
        f"SemiNaive: unguided/guided = {ratio:.1f}x",
    )
    report("impact_taint", table)
    assert bit_equal, "guided exports diverge from the unguided run"
