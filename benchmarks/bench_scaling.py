"""Extension — scaling: update time vs subject size.

The core promise of incremental analysis (Section 1: results "in time
proportional to the size of the code change, not the entire code base").
We grow one subject through scale factors, and compare how initialization
time and median update time scale with program size.  Reproduced claim,
Section 1's contrast: init tracks the code base, the median update does not
(it tracks change impact, not code size).

Init is compared between the two larger subjects only.  Every solve first
plans and compiles its ~70 rule kernels, a cost that does not depend on the
subject's size (``compile_seconds`` of ``repro bench pointsto-kupdate pmd
--scale S --profile-json``: 19.4 / 23.6 / 21.0 ms at S = 0.5 / 1 / 2 on one
core of a 2-core Xeon VM, Python 3.11), so at 0.5x — 178 statements, a
21.5 ms init there — that fixed cost is nine tenths of the init and hides
how the fixpoint itself scales.
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
    # Init scales with the subject once the fixed kernel-compile cost is
    # amortized (see the module docstring) ...
    assert inits[-1] / inits[-2] > (sizes[-1] / sizes[-2]) / 2
    # ... while the median update grows far slower than the code base does.
    median_growth = medians[-1] / max(medians[0], 1e-9)
    assert median_growth < (sizes[-1] / sizes[0]) / 1.5
