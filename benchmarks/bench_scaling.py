"""Extension — scaling: update time vs subject size.

The core promise of incremental analysis (Section 1: results "in time
proportional to the size of the code change, not the entire code base").
We grow one subject through scale factors, and compare how initialization
time and median update time scale with program size.  Reproduced claim:
init grows roughly linearly with the subject while the median update stays
flat (it tracks change impact, not code size).
"""

import pytest

from repro.analyses import kupdate_pointsto
from repro.bench import Distribution, format_table, run_update_benchmark
from repro.changes import alloc_site_changes
from repro.corpus import PRESETS, generate
from repro.engines import LaddderSolver

from common import CHANGE_PAIRS, report

SCALES = [0.5, 1.0, 2.0]


def _measure():
    rows = []
    inits = []
    medians = []
    sizes = []
    for scale in SCALES:
        spec = PRESETS["pmd"].scaled(scale) if scale != 1.0 else PRESETS["pmd"]
        program = generate(spec)
        instance = kupdate_pointsto(program)
        changes = alloc_site_changes(instance, CHANGE_PAIRS, seed=31)
        run = run_update_benchmark(instance, LaddderSolver, changes)
        dist = Distribution.of(run.update_times())
        size = program.statement_count()
        rows.append(
            [
                f"pmd@{scale:g}x",
                size,
                f"{run.init_seconds * 1e3:.1f}",
                f"{dist.median * 1e3:.2f}",
                f"{dist.p99 * 1e3:.1f}",
            ]
        )
        inits.append(run.init_seconds)
        medians.append(dist.median)
        sizes.append(size)
    return rows, inits, medians, sizes


def test_update_time_stays_flat_while_init_grows(benchmark):
    rows, inits, medians, sizes = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    table = format_table(
        ["subject", "stmts", "init (ms)", "median update (ms)", "p99 (ms)"],
        rows,
        title="Scaling — init grows with the code base, updates track the "
        "change (Section 1's incremental promise)",
    )
    report("scaling", table)
    size_growth = sizes[-1] / sizes[0]
    init_growth = inits[-1] / inits[0]
    median_growth = medians[-1] / max(medians[0], 1e-9)
    # Init scales with the subject; the median update grows far slower than
    # the code base does.
    assert init_growth > size_growth / 2
    assert median_growth < size_growth / 1.5
