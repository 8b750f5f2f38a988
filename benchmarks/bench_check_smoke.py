"""Dead-rule pruning gate: fail if pruning stops paying for itself.

The static checker's live slice (docs/STATIC_CHECKS.md) drops rules that
cannot reach an exported predicate before the engines plan or compile
anything.  This smoke check injects a chain of scratch rules into a real
analysis (constant propagation on the minijavac preset), runs the solver
with ``SolverConfig.prune`` on and off, and asserts that

* exported relations are bit-equal either way (pruning is semantics-free),
* every injected rule is pruned and none of them is compiled
  (``rules_compiled`` strictly smaller with pruning on), and
* the static check itself stays cheap relative to the solve.

Run as ``PYTHONPATH=src python benchmarks/bench_check_smoke.py``.
Results are persisted to ``benchmarks/results/check_smoke.txt``.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.analyses import constant_propagation
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.datalog import Program, Rule, atom, head, var
from repro.engines import SemiNaiveSolver
from repro.metrics import SolverMetrics

from common import report


def inject_dead_rules(program: Program, count: int) -> Program:
    """A copy of ``program`` with ``count`` extra rules that never feed the
    exports: a chain seeded from a real input relation, so the rules would
    genuinely join and derive tuples if evaluated."""
    clone = program.copy()
    # Freeze the exports first — a program without .export exports every
    # derived predicate, and nothing would ever be dead.
    clone.exports = clone.exported_predicates()
    seed = sorted(clone.edb_predicates())[0]
    arity = clone.arities()[seed]
    args = [var(f"V{i}") for i in range(arity)]
    clone.add_rule(Rule(head("scratch0", *args), (atom(seed, *args),)))
    for i in range(1, count):
        clone.add_rule(
            Rule(head(f"scratch{i}", *args), (atom(f"scratch{i - 1}", *args),))
        )
    return clone


def run(program, facts, prune: bool):
    metrics = SolverMetrics()
    t0 = perf_counter()
    solver = SemiNaiveSolver(
        program, metrics=metrics, config=SolverConfig(prune=prune)
    )
    for pred, rows in facts.items():
        solver.add_facts(pred, rows)
    solver.solve()
    seconds = perf_counter() - t0
    return solver.relations(), metrics, seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dead-rules", type=int, default=8,
                        help="scratch rules to inject")
    args = parser.parse_args(argv)

    instance = constant_propagation(load_subject("minijavac"))
    program = inject_dead_rules(instance.program, args.dead_rules)

    pruned_rel, pruned, pruned_s = run(program, instance.facts, prune=True)
    plain_rel, plain, plain_s = run(program, instance.facts, prune=False)

    lines = [
        f"Dead-rule pruning, SemiNaive on constprop@minijavac "
        f"(+{args.dead_rules} injected scratch rules)",
        f"  pruned    solve {pruned_s * 1e3:8.1f} ms, "
        f"{pruned.rules_compiled:3d} kernels, "
        f"check {pruned.check_seconds * 1e3:.1f} ms, "
        f"{pruned.dead_rules_pruned} rules pruned",
        f"  unpruned  solve {plain_s * 1e3:8.1f} ms, "
        f"{plain.rules_compiled:3d} kernels "
        f"(prune=False)",
    ]
    report("check_smoke", "\n".join(lines))

    failures = []
    if pruned_rel != plain_rel:
        failures.append("exported relations differ between pruned and unpruned")
    if pruned.dead_rules_pruned != args.dead_rules:
        failures.append(
            f"expected {args.dead_rules} pruned rules, "
            f"got {pruned.dead_rules_pruned}"
        )
    if pruned.rules_compiled >= plain.rules_compiled:
        failures.append(
            f"pruning saved no kernels ({pruned.rules_compiled} vs "
            f"{plain.rules_compiled})"
        )
    if pruned.check_seconds > max(0.25, pruned_s):
        failures.append(
            f"static check cost {pruned.check_seconds:.3f}s, "
            f"more than the solve itself"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    saved = plain.rules_compiled - pruned.rules_compiled
    print(
        f"OK: {pruned.dead_rules_pruned} dead rules pruned, "
        f"{saved} kernel compilations avoided, exports bit-equal"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
