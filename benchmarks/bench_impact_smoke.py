"""Impact-guided scheduling gate: sparse edits must skip most strata.

Two seeded edit series on the minijavac preset, both delete/reinsert
waves over a single EDB predicate, run with impact-guided update
scheduling (the default) and with ``SolverConfig(impact=False)``:

* ``constprop`` edited through ``flow`` — the footprint is the value
  stratum alone, so every epoch must skip at least half the strata.
* ``taint`` edited through ``taintsink`` — the footprint is the final
  reporting stratum, so the guided run dodges the points-to and taint
  propagation fixpoints entirely and must be measurably faster.

The gate fails (exit 1) if any epoch skips less than the series'
required strata fraction, if any exported relation diverges from the
unguided reference, or if the guided taint series is not faster.

Run as ``PYTHONPATH=src python benchmarks/bench_impact_smoke.py``.
Results land in ``benchmarks/results/impact_smoke.txt`` and
``benchmarks/results/BENCH_impact.json``.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.analyses import ANALYSES
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.engines import SemiNaiveSolver
from repro.metrics import SolverMetrics

from common import report, report_json

#: (analysis, edited EDB predicate, required per-epoch skip fraction,
#:  speedup required?)
SERIES = [
    ("constprop", "flow", 0.5, False),
    ("taint", "taintsink", 0.75, True),
]


def edit_series(instance, pred: str, epochs: int):
    """Delete/reinsert waves over ``pred`` rows only — the sparsest edit
    the analysis admits."""
    rows = sorted(instance.facts[pred])
    series = []
    for epoch in range(epochs):
        wave = rows[epoch % len(rows):][: 3 + epoch] or rows[:1]
        series.append(({pred: wave}, None))       # delete
        series.append((None, {pred: wave}))       # reinsert
    return series


def run(instance, series, guided: bool):
    metrics = SolverMetrics()
    solver = SemiNaiveSolver(
        instance.program, metrics=metrics, config=SolverConfig(impact=guided)
    )
    for pred, rows in instance.facts.items():
        solver.add_facts(pred, rows)
    solver.solve()
    epochs = []
    t0 = perf_counter()
    for deletions, insertions in series:
        skipped_before = metrics.strata_skipped
        solver.update(insertions=insertions, deletions=deletions)
        footprint = solver.last_footprint
        epochs.append({
            "strata_skipped": metrics.strata_skipped - skipped_before,
            "strata_total": (
                footprint.strata_total if footprint is not None else None
            ),
        })
    seconds = perf_counter() - t0
    return solver.relations(), metrics, epochs, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=6,
                        help="delete/reinsert waves per series")
    args = parser.parse_args(argv)

    subject = load_subject("minijavac")
    lines = []
    payload = {"subject": "minijavac", "engine": "SemiNaiveSolver",
               "series": {}}
    failures = []

    for analysis, pred, min_skip, need_speedup in SERIES:
        instance = ANALYSES[analysis](subject)
        series = edit_series(instance, pred, args.epochs)

        guided_rel, guided, epochs, guided_s = run(instance, series, True)
        plain_rel, _, _, plain_s = run(instance, series, False)

        fractions = [e["strata_skipped"] / e["strata_total"] for e in epochs]
        speedup = plain_s / guided_s if guided_s else float("inf")
        label = f"{analysis} via {pred}"
        lines += [
            f"{label}: {len(series)} epochs, SemiNaive",
            f"  guided    {guided_s * 1e3:8.1f} ms, "
            f"{guided.strata_skipped} strata skipped, "
            f"{guided.rules_skipped_by_impact} rules unbound, "
            f"impact overhead {guided.impact_seconds * 1e3:.2f} ms",
            f"  unguided  {plain_s * 1e3:8.1f} ms (impact=False)",
            f"  min epoch skip fraction {min(fractions):.2f} "
            f"(gate: >= {min_skip:.2f}), speedup {speedup:.2f}x",
        ]
        payload["series"][analysis] = {
            "edited_pred": pred,
            "epochs": epochs,
            "guided_seconds": guided_s,
            "unguided_seconds": plain_s,
            "speedup": speedup,
            "strata_skipped": guided.strata_skipped,
            "rules_skipped_by_impact": guided.rules_skipped_by_impact,
            "impact_seconds": guided.impact_seconds,
            "min_skip_fraction": min(fractions),
            "bit_equal": guided_rel == plain_rel,
        }

        if guided_rel != plain_rel:
            failures.append(f"{label}: exports diverge from unguided run")
        if min(fractions) < min_skip:
            failures.append(
                f"{label}: an epoch skipped only {min(fractions):.0%} of "
                f"strata (need >= {min_skip:.0%})"
            )
        if need_speedup and guided_s >= plain_s:
            failures.append(
                f"{label}: impact guidance saved no time "
                f"({guided_s * 1e3:.1f} ms vs {plain_s * 1e3:.1f} ms)"
            )

    report("impact_smoke", "\n".join(lines))
    report_json("impact", payload)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: strata-skip and speedup gates hold, exports bit-equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
