"""Guarded-update overhead gate: fail if guarding stops being cheap.

The transactional guard (:mod:`repro.robustness`) promises that, absent
faults, wrapping a solver in :class:`GuardedSolver` is a pure robustness
transformation — same answers, same update complexity, small constant
overhead for journaling inverse operations.  This smoke check measures a
real update series (constant propagation on the minijavac preset, Laddder
engine) both plain and guarded, asserts the exports stay identical, and
gates the guarded/plain wall-time ratio at ``--max-overhead`` (default
1.10, the <10% acceptance criterion).

Self-check mode is *not* part of the gate: invariant validation re-derives
rule bodies between strata and is priced as a debugging mode, not an
always-on cost.  Its wall time is reported for visibility only.

Run as ``PYTHONPATH=src python benchmarks/bench_guard_smoke.py``.
Results are persisted to ``benchmarks/results/guard_smoke.txt``.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.analyses import constant_propagation
from repro.changes import literal_to_zero_changes
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.engines import LaddderSolver
from repro.robustness import GuardedSolver

from common import report


def _update_series(solver, changes) -> float:
    """Wall time for driving ``changes`` through ``solver``."""
    t0 = perf_counter()
    for change in changes:
        solver.update(insertions=change.insertions, deletions=change.deletions)
    return perf_counter() - t0


def measure(change_pairs: int, rounds: int) -> dict:
    instance = constant_propagation(load_subject("minijavac"))
    changes = literal_to_zero_changes(instance, change_pairs, seed=42)
    times = {"plain": float("inf"), "guarded": float("inf")}
    exports = {}
    for _ in range(rounds):
        for label in ("plain", "guarded"):
            solver = instance.make_solver(LaddderSolver)
            if label == "guarded":
                solver = GuardedSolver(solver)
            times[label] = min(times[label], _update_series(solver, changes))
            exports[label] = {
                pred: solver.relation(pred)
                for pred in solver.program.exported_predicates()
            }
    assert exports["plain"] == exports["guarded"], (
        "guarded exports diverge from plain exports"
    )

    # Self-check wall time, reported but not gated.
    solver = GuardedSolver(
        instance.make_solver(LaddderSolver, config=SolverConfig(self_check=True))
    )
    times["self-check"] = _update_series(solver, changes)
    return {"times": times, "updates": len(changes)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=1.10,
        help="allowed guarded/plain wall-time ratio on the update series",
    )
    parser.add_argument("--changes", type=int, default=10,
                        help="change pairs to synthesize (2x updates)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="best-of rounds per configuration")
    args = parser.parse_args(argv)

    result = measure(args.changes, args.rounds)
    times = result["times"]
    ratio = times["guarded"] / times["plain"]

    lines = [
        f"Guarded vs plain updates, Laddder on constprop@minijavac "
        f"({result['updates']} updates, best of {args.rounds})",
        f"  plain       {times['plain'] * 1e3:8.1f} ms",
        f"  guarded     {times['guarded'] * 1e3:8.1f} ms  "
        f"({ratio:.3f}x, gate {args.max_overhead:.2f}x)",
        f"  self-check  {times['self-check'] * 1e3:8.1f} ms  (not gated)",
    ]
    report("guard_smoke", "\n".join(lines))

    if ratio > args.max_overhead:
        print(
            f"FAIL: guarded updates cost {ratio:.3f}x plain, "
            f"above the {args.max_overhead:.2f}x gate",
            file=sys.stderr,
        )
        return 1
    print(f"OK: guarded-update overhead {ratio:.3f}x is within the gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
