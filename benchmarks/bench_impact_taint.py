"""Extension — the update pipeline's one skip rule on a sparse edit series.

``taint`` on minijavac, edited through ``taintsink`` alone in
delete/reinsert waves.  Only the final reporting stratum reads
``taintsink``, so an update runs that stratum and skips the points-to and
taint-propagation fixpoints, whose inputs did not change.  The comparison
is a from-scratch ``solve()`` of each epoch's EDB: the cost an engine that
re-runs every stratum pays.

The table reports both wall times, the strata skipped and the join probes;
the only assertion is that every epoch exports what the from-scratch solve
of its EDB exports.
"""

from time import perf_counter

from repro.analyses import taint_analysis
from repro.bench import format_table
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


def _measure():
    instance = taint_analysis(subject("minijavac"))
    series = _edit_series(instance)
    skipping = SolverMetrics()
    solver = instance.make_solver(SemiNaiveSolver, metrics=skipping)
    scratch = SolverMetrics()
    reference = instance.make_solver(SemiNaiveSolver, solve=False, metrics=scratch)
    skipping_probes = -skipping.join_probes
    updates_s = solves_s = 0.0
    equal = True
    for deletions, insertions in series:
        t0 = perf_counter()
        solver.update(insertions=insertions, deletions=deletions)
        updates_s += perf_counter() - t0
        reference.replace_facts({p: solver.facts(p) for p in instance.facts})
        t0 = perf_counter()
        reference.solve()
        solves_s += perf_counter() - t0
        equal = equal and solver.relations() == reference.relations()
    skipping_probes += skipping.join_probes
    rows = [
        ["update (skip rule)", len(series), f"{updates_s * 1e3:.1f}",
         skipping.strata_skipped, skipping_probes],
        ["from-scratch solve", len(series), f"{solves_s * 1e3:.1f}",
         0, scratch.join_probes],
    ]
    return rows, equal, solves_s / updates_s


def test_impact_taint(benchmark):
    rows, equal, ratio = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = format_table(
        ["run", "epochs", "time (ms)", "strata skipped", "join probes"],
        rows,
        title=f"One skip rule — taint via {EDITED_PRED}, minijavac, "
        f"SemiNaive: from-scratch/update = {ratio:.1f}x",
    )
    report("impact_taint", table)
    assert equal, "an epoch's exports diverge from a from-scratch solve"
