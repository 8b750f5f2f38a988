"""Compiled-vs-interpreted guard: fail if compilation stops paying off.

A fast, CI-friendly check (no pytest-benchmark required) that the compiled
kernels are actually faster than the ``run_plan`` interpreter on the shapes
the engines run hottest:

* a two-way indexed join enumerated from scratch (the seed-round shape),
* pinned delta enumeration (the semi-naive/DRed/Laddder update shape),
* one end-to-end Laddder solve + update series in both backends.

Both backends must produce identical results; the join/delta micro must hit
``--min-speedup`` (default 1.5x, the acceptance floor — the margin in
practice is much larger, so a failure means a real regression rather than
timing noise).  Exit status is non-zero on any violation, so CI can gate
on it.  Results are persisted to ``benchmarks/results/compiled_smoke.txt``.

Run as ``PYTHONPATH=src python benchmarks/bench_compiled_smoke.py``.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.config import SolverConfig
from repro.datalog import parse
from repro.engines import LaddderSolver
from repro.engines.compile import KernelCache
from repro.engines.relation import RelationStore

from common import report


def _join_fixture():
    program = parse("out(X, Z) :- left(X, Y), right(Y, Z).")
    store = RelationStore({"left": 2, "right": 2})
    for i in range(600):
        store.get("left").add((i % 40, i))
        store.get("right").add((i, i % 25))
    return program, store


def _best_of(fn, repeats: int, rounds: int = 5) -> float:
    """Best-of-N wall time for ``repeats`` calls of ``fn`` (noise floor)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, perf_counter() - t0)
    return best


def scan_speedup() -> tuple[float, int]:
    program, store = _join_fixture()
    rule = program.rules[0]
    compiled = KernelCache(program, interpret=False).kernel(rule).fn
    interp = KernelCache(program, interpret=True).kernel(rule).fn
    rows_c = sorted(compiled(store.get))
    rows_i = sorted(interp(store.get))
    assert rows_c == rows_i, "compiled scan kernel diverges from run_plan"
    t_compiled = _best_of(lambda: sum(1 for _ in compiled(store.get)), 20)
    t_interp = _best_of(lambda: sum(1 for _ in interp(store.get)), 20)
    return t_interp / t_compiled, len(rows_c)


def delta_speedup() -> float:
    program, store = _join_fixture()
    rule = program.rules[0]
    compiled = KernelCache(program, interpret=False).kernel(rule, pinned=0).fn
    interp = KernelCache(program, interpret=True).kernel(rule, pinned=0).fn
    delta = [(i % 40, i) for i in range(0, 600, 2)]
    for row in delta[:5]:
        assert sorted(compiled(store.get, row)) == sorted(interp(store.get, row))

    def drive(kernel):
        def run():
            total = 0
            for row in delta:
                total += sum(1 for _ in kernel(store.get, row))
            return total

        return run

    return _best_of(drive(interp), 5) / _best_of(drive(compiled), 5)


def end_to_end() -> tuple[float, float]:
    """Laddder solve + update series wall time (compiled, interpreted)."""
    program = parse(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        """
    )
    edges = [(i, i + 1) for i in range(80)] + [(80, 0)]
    times = {}
    results = {}
    for backend, interpret in (("compiled", False), ("interpreted", True)):
        solver = LaddderSolver(program, config=SolverConfig(interpret=interpret))
        solver.add_facts("edge", edges)
        t0 = perf_counter()
        solver.solve()
        for k in range(5):
            solver.update(deletions={"edge": {(k * 7, k * 7 + 1)}})
            solver.update(insertions={"edge": {(k * 7, k * 7 + 1)}})
        times[backend] = perf_counter() - t0
        results[backend] = solver.relation("tc")
    assert results["compiled"] == results["interpreted"], (
        "Laddder exports diverge between backends"
    )
    return times["compiled"], times["interpreted"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="required interpreter/compiled ratio on the scan-join micro",
    )
    parser.add_argument(
        "--min-delta-speedup",
        type=float,
        default=1.2,
        help="floor for the per-row pinned-delta shape (smaller margin: the "
        "fixed per-call generator overhead dominates single-row work)",
    )
    args = parser.parse_args(argv)

    scan, rows = scan_speedup()
    delta = delta_speedup()
    e2e_c, e2e_i = end_to_end()
    e2e = e2e_i / e2e_c

    lines = ["Compiled kernels vs run_plan interpreter (best-of-5 wall times)"]
    for label, value, note in (
        (f"scan join ({rows} result rows)", scan, f"gate {args.min_speedup:.2f}x"),
        ("pinned delta enumeration", delta, f"gate {args.min_delta_speedup:.2f}x"),
        (
            "Laddder solve+10 updates",
            e2e,
            f"{e2e_c * 1e3:.1f} ms vs {e2e_i * 1e3:.1f} ms",
        ),
    ):
        lines.append(f"  {label:<32} {value:5.2f}x  ({note})")
    report("compiled_smoke", "\n".join(lines))

    failed = [
        name
        for name, value, floor in (
            ("scan", scan, args.min_speedup),
            ("delta", delta, args.min_delta_speedup),
        )
        if value < floor
    ]
    if failed:
        print(
            "FAIL: compiled kernels below their speedup floor on: "
            + ", ".join(failed),
            file=sys.stderr,
        )
        return 1
    print("OK: compiled kernels beat the interpreter on every shape")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
