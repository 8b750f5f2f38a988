"""Columnar backend — object vs columnar storage under Section 7.1 epochs.

Same protocol as ``bench_sec71_update_times.py`` (initialize once, apply
every synthesized change as one epoch, summarize the distribution), run
twice per engine and subject: once with the default ``object`` backend and
once with ``SolverConfig(backend="columnar")`` (interned handles + packed index keys
+ struct-of-arrays columns — pure Python, no numpy required).

Both backends run the same compiled lowering (hoisted index, inline key,
batched tail: ``repro.engines.compile``); what differs is the row
representation — raw values with tuple index keys against interned int
handles with packed int keys.  An earlier ``>= 1.8x`` gate on the
from-scratch engine measured a *lowering* fork (the object backend probed
through ``matching()``), not the storage; with one lowering the gap is the
storage's own, and it is recorded here, not gated.  What stays asserted is
the floor: the columnar backend must not cost any engine more than
measurement noise.

Results land in ``results/bench_columnar.txt`` (table) and
``results/BENCH_columnar.json`` (per-engine/subject curves + speedups).
"""

from statistics import median

from repro.bench import Distribution, format_table, run_update_benchmark
from repro.config import SolverConfig
from repro.engines import DRedLSolver, LaddderSolver, SemiNaiveSolver

from common import ANALYSIS_SERIES, SUBJECTS, make_changes, report, report_json, subject

#: Columnar must at minimum not regress any engine's median update epoch
#: beyond measurement noise.
FLOOR_SPEEDUP = 0.8

ENGINES = (SemiNaiveSolver, DRedLSolver, LaddderSolver)


def _measure(engine_cls, instance_builder, generator, subject_name, backend):
    """One (engine, subject, backend) series: init + per-epoch times."""
    instance = instance_builder(subject(subject_name))
    changes = make_changes(generator, instance)
    run = run_update_benchmark(
        instance, engine_cls, changes, config=SolverConfig(backend=backend)
    )
    return {
        "init_ms": run.init_seconds * 1e3,
        "update_median_ms": median(run.update_times()) * 1e3,
        "updates_ms": Distribution.of(run.update_times()).row(unit=1e3),
    }


def _series():
    build, generator = ANALYSIS_SERIES["constprop"]
    engines = {}
    rows = []
    for engine_cls in ENGINES:
        per_subject = {}
        for name in SUBJECTS:
            obj = _measure(engine_cls, build, generator, name, "object")
            col = _measure(engine_cls, build, generator, name, "columnar")
            speedup = {
                "init": obj["init_ms"] / col["init_ms"],
                "update_median": obj["update_median_ms"] / col["update_median_ms"],
            }
            per_subject[name] = {
                "object": obj,
                "columnar": col,
                "speedup": speedup,
            }
            rows.append(
                (
                    engine_cls.__name__,
                    name,
                    f"{obj['init_ms']:.1f}",
                    f"{col['init_ms']:.1f}",
                    f"{speedup['init']:.2f}x",
                    f"{obj['update_median_ms']:.2f}",
                    f"{col['update_median_ms']:.2f}",
                    f"{speedup['update_median']:.2f}x",
                )
            )
        engines[engine_cls.__name__] = per_subject
    return engines, rows


def test_columnar_speedup(benchmark):
    engines, rows = benchmark.pedantic(_series, rounds=1, iterations=1)
    table = format_table(
        (
            "engine", "subject",
            "init obj (ms)", "init col (ms)", "init x",
            "update obj (ms)", "update col (ms)", "update x",
        ),
        rows,
        title="Columnar vs object backend — constprop, Section 7.1 epochs",
    )
    report("bench_columnar", table)
    report_json(
        "columnar",
        {
            "analysis": "constprop",
            "backend_pair": ["object", "columnar"],
            "floor": {
                "engines": [e.__name__ for e in ENGINES],
                "metric": "update_median_speedup",
                "threshold": FLOOR_SPEEDUP,
            },
            "engines": engines,
        },
    )
    for engine_cls in ENGINES:
        for name, entry in engines[engine_cls.__name__].items():
            assert entry["speedup"]["update_median"] >= FLOOR_SPEEDUP, (
                f"{engine_cls.__name__}/{name}: columnar regressed update "
                f"median to {entry['speedup']['update_median']:.2f}x"
            )
