"""Engine microbenchmarks (multi-round pytest-benchmark runs).

Times the hot primitives underneath every update: timeline merges, AVL
aggregand-tree churn, group roll-ups, indexed join enumeration, and one
fixed Laddder epoch.  These are the numbers to watch when optimizing the
engine; the macro benchmarks (sec71/sec73) validate end-to-end behaviour.
"""

import random

import pytest

from repro.config import SolverConfig
from repro.datalog import parse, plan_body
from repro.engines import LaddderSolver
from repro.engines.compile import KernelCache
from repro.engines.grounding import run_plan
from repro.engines.laddder import AggTree, GroupState, Timeline
from repro.engines.relation import RelationStore
from repro.lattices import PowersetLattice

SETS = PowersetLattice()


def test_micro_timeline_merge(benchmark):
    entries = [(t % 50, 1 if t % 3 else -1) for t in range(500)]

    def run():
        timeline = Timeline()
        for t, d in entries:
            timeline.add(t, d)
        return timeline.first()

    benchmark(run)


def test_micro_aggtree_churn(benchmark):
    rng = random.Random(5)
    values = [frozenset((f"v{i % 40}",)) for i in range(200)]

    def run():
        tree = AggTree(SETS.join)
        live = []
        for value in values:
            if live and rng.random() < 0.4:
                tree.remove(live.pop())
            tree.insert(value)
            live.append(value)
        return len(tree)

    benchmark(run)


def test_micro_group_rollup(benchmark):
    def run():
        group = GroupState(SETS.join)
        for t in range(40):
            group.insert(t, frozenset((f"x{t}",)))
        # epoch churn at an early timestamp: roll-up with early stop
        group.insert(3, frozenset(("x3",)))
        group.remove(3, frozenset(("x3",)))
        return group.final()

    benchmark(run)


def _join_fixture():
    program = parse("out(X, Z) :- left(X, Y), right(Y, Z).")
    store = RelationStore({"left": 2, "right": 2})
    for i in range(300):
        store.get("left").add((i % 30, i))
        store.get("right").add((i, i % 20))
    return program, store


def test_micro_indexed_join(benchmark):
    """The run_plan interpreter on a two-way indexed join — the reference
    cost; compare against ``test_micro_compiled_join``."""
    program, store = _join_fixture()
    plan = plan_body(program.rules[0])

    def run():
        return sum(1 for _ in run_plan(plan, program, store.get, {}))

    count = benchmark(run)
    assert count == 300


def test_micro_compiled_join(benchmark):
    """The same join through a compiled kernel (the engines' hot path)."""
    program, store = _join_fixture()
    kernel = KernelCache(program, interpret=False).kernel(program.rules[0]).fn

    def run():
        return sum(1 for _ in kernel(store.get))

    count = benchmark(run)
    assert count == 300


def test_micro_compiled_pinned_delta(benchmark):
    """Delta propagation shape: a pinned kernel driven per changed tuple,
    as the semi-naive/DRed/Laddder update loops do."""
    program, store = _join_fixture()
    rule = program.rules[0]
    kernel = KernelCache(program, interpret=False).kernel(rule, pinned=0).fn
    delta = [(i % 30, i) for i in range(0, 300, 3)]

    def run():
        total = 0
        for row in delta:
            total += sum(1 for _ in kernel(store.get, row))
        return total

    count = benchmark(run)
    assert count == len(delta)


@pytest.mark.parametrize("backend", ["compiled", "interpreted"])
def test_micro_laddder_epoch(benchmark, backend):
    program = parse(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        """
    )
    solver = LaddderSolver(
        program, config=SolverConfig(interpret=backend == "interpreted")
    )
    solver.add_facts("edge", [(i, i + 1) for i in range(60)] + [(60, 0)])
    solver.solve()

    def run():
        solver.update(deletions={"edge": {(30, 31)}})
        solver.update(insertions={"edge": {(30, 31)}})

    benchmark(run)
    assert len(solver.relation("tc")) == 61 * 61


def test_micro_solver_init(benchmark):
    program = parse(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        """
    )
    edges = [(i, i + 1) for i in range(40)]

    def run():
        solver = LaddderSolver(program)
        solver.add_facts("edge", edges)
        solver.solve()
        return len(solver.relation("tc"))

    count = benchmark(run)
    assert count == 41 * 40 // 2
