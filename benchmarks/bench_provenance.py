"""Provenance gate: capture must be cheap, reconstruction must be fast.

Two measurements on the minijavac constprop preset (docs/PROVENANCE.md):

* **Capture overhead** — from-scratch solve wall time, annotated
  (``SolverConfig(provenance=True)``) vs. plain, best-of-N to shave scheduler noise.
  The gate fails if annotation capture costs more than the budgeted
  fraction of solve time (default 10%), or if the exported relations of
  the two solvers are not bit-equal.
* **Reconstruction latency** — ``explain`` over a sample of derived
  ``val`` tuples and ``whynot`` over absent ones, reported as p50/p95.
  No latency gate (machine-dependent); the numbers land in the JSON
  record for cross-run diffing.

Run as ``PYTHONPATH=src python benchmarks/bench_provenance.py``.
Results land in ``benchmarks/results/provenance.txt`` and
``benchmarks/results/BENCH_provenance.json``.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.analyses import ANALYSES
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.engines import LaddderSolver, explain
from repro.metrics import SolverMetrics
from repro.provenance import whynot

from common import report, report_json

#: Capture may cost at most this fraction of plain solve time.
OVERHEAD_BUDGET = 0.10


def solve_once(instance, provenance: bool):
    metrics = SolverMetrics()
    solver = LaddderSolver(
        instance.program,
        metrics=metrics,
        config=SolverConfig(provenance=provenance),
    )
    for pred, rows in instance.facts.items():
        solver.add_facts(pred, rows)
    t0 = perf_counter()
    solver.solve()
    return solver, metrics, perf_counter() - t0


def best_of(instance, provenance: bool, repeats: int):
    solver = metrics = None
    best = float("inf")
    for _ in range(repeats):
        solver, metrics, seconds = solve_once(instance, provenance)
        best = min(best, seconds)
    return solver, metrics, best


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="solve repetitions per variant (best-of)")
    parser.add_argument("--samples", type=int, default=50,
                        help="explain/whynot reconstructions to time")
    parser.add_argument("--budget", type=float, default=OVERHEAD_BUDGET,
                        help="max annotated-solve overhead fraction")
    args = parser.parse_args(argv)

    instance = ANALYSES["constprop"](load_subject("minijavac"))
    plain_solver, _, plain_s = best_of(instance, False, args.repeats)
    solver, metrics, annotated_s = best_of(instance, True, args.repeats)
    overhead = annotated_s / plain_s - 1.0 if plain_s else 0.0
    bit_equal = solver.relations() == plain_solver.relations()

    # Reconstruction latency: explain over a deterministic sample of
    # derived tuples, whynot over rows absent by construction.
    rows = sorted(solver.relation("val"), key=repr)
    step = max(1, len(rows) // args.samples)
    explain_times = []
    for row in rows[::step][: args.samples]:
        t0 = perf_counter()
        explain(solver, "val", row)
        explain_times.append(perf_counter() - t0)
    whynot_times = []
    for node, var, _ in rows[::step][: args.samples]:
        t0 = perf_counter()
        whynot(solver, "val", (node, f"{var}__missing", None))
        whynot_times.append(perf_counter() - t0)

    lines = [
        "provenance capture + reconstruction (constprop/minijavac, Laddder)",
        f"  plain solve      {plain_s * 1e3:8.1f} ms (best of {args.repeats})",
        f"  annotated solve  {annotated_s * 1e3:8.1f} ms, "
        f"{metrics.provenance_annotations} annotations "
        f"(overhead {overhead:+.1%}, gate: <= {args.budget:.0%})",
        f"  explain  x{len(explain_times)}: "
        f"p50 {percentile(explain_times, 0.50) * 1e3:6.2f} ms, "
        f"p95 {percentile(explain_times, 0.95) * 1e3:6.2f} ms "
        f"(hits {metrics.provenance_hits}, "
        f"fallbacks {metrics.provenance_fallbacks})",
        f"  whynot   x{len(whynot_times)}: "
        f"p50 {percentile(whynot_times, 0.50) * 1e3:6.2f} ms, "
        f"p95 {percentile(whynot_times, 0.95) * 1e3:6.2f} ms",
    ]
    payload = {
        "analysis": "constprop",
        "subject": "minijavac",
        "engine": "LaddderSolver",
        "plain_seconds": plain_s,
        "annotated_seconds": annotated_s,
        "overhead_fraction": overhead,
        "overhead_budget": args.budget,
        "annotations": metrics.provenance_annotations,
        "bit_equal": bit_equal,
        "explain": {
            "samples": len(explain_times),
            "p50_seconds": percentile(explain_times, 0.50),
            "p95_seconds": percentile(explain_times, 0.95),
            "hits": metrics.provenance_hits,
            "fallbacks": metrics.provenance_fallbacks,
        },
        "whynot": {
            "samples": len(whynot_times),
            "p50_seconds": percentile(whynot_times, 0.50),
            "p95_seconds": percentile(whynot_times, 0.95),
        },
    }
    report("provenance", "\n".join(lines))
    report_json("provenance", payload)

    failures = []
    if not bit_equal:
        failures.append("annotated exports diverge from plain solve")
    if overhead > args.budget:
        failures.append(
            f"capture overhead {overhead:.1%} exceeds {args.budget:.0%}"
        )
    if metrics.provenance_annotations == 0:
        failures.append("annotated solve recorded no annotations")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: capture within budget, exports bit-equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
