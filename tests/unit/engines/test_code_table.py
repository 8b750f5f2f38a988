"""The process-wide code table: a second solver of a program compiles nothing.

:mod:`repro.engines.compile` keeps two bounded tables for the whole
process: the greedy plan of a rule shape and the code object of a
generated source text.  These tests pin what that sharing may and may not
change: a warm solver makes no ``compile`` call, and it still owns every
function object, namespace and constant it runs with, so its answers,
counters and checkpoints are those of a cold one.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from pathlib import Path

import pytest

import repro.engines.compile as compile_module
from repro.config import SolverConfig
from repro.datalog import parse
from repro.engines import DRedLSolver, LaddderSolver, SemiNaiveSolver
from repro.engines.checkpoint import dump_state, load_checkpoint
from repro.lattices import ChainLattice, glb
from repro.metrics import SolverMetrics
from repro.service import take_snapshot

from ...property.test_random_programs import COLLECT_SHAPES, build_program
from .helpers import tc_facts, tc_program

# A recursive lattice aggregation, a computed value and a negated stratum:
# every kind of generated code (kernels, extractors, firing functions).
PROGRAM = """
    dcand(X, Y, C) :- arc(X, Y, C).
    dcand(X, Z, C) :- dist(X, Y, C1), arc(Y, Z, C2), C := capadd(C1, C2).
    dist(X, Y, glbc<C>) :- dcand(X, Y, C).
    linked(X, Y) :- dist(X, Y, _).
    unlinked(X, Y) :- node(X), node(Y), !linked(X, Y).
    .export arc, dist, unlinked.
"""
FACTS = {
    "node": {(n,) for n in "abcd"},
    "arc": {("a", "b", 1), ("b", "c", 2), ("a", "c", 9)},
}
BATCH = {
    "insertions": {"arc": {("c", "d", 1), ("d", "a", 2)}},
    "deletions": {"arc": {("a", "b", 1)}},
}
FIXTURES = Path(__file__).parents[2] / "fixtures"


def program():
    p = parse(PROGRAM)
    p.register_function("capadd", lambda a, b: min(a + b, 99))
    p.register_aggregator("glbc", glb(ChainLattice(list(range(100)))))
    return p


def solved(engine_cls, prog=None, config=None, metrics=None):
    solver = engine_cls(prog or program(), config=config, metrics=metrics)
    for pred, rows in FACTS.items():
        solver.add_facts(pred, rows)
    solver.solve()
    return solver


def updated(solver):
    solver.update(**BATCH)
    return solver.relations()


@pytest.fixture
def cold():
    """Empty process-wide tables, emptied again afterwards."""
    compile_module._code.cache_clear()
    compile_module._greedy_order.cache_clear()
    yield
    compile_module._code.cache_clear()
    compile_module._greedy_order.cache_clear()


@pytest.fixture
def compiles(monkeypatch):
    """The ``compile`` calls the code generator makes, counted."""
    calls: list[str] = []

    def counting(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(compile_module, "compile", counting, raising=False)
    return calls


def generated_functions(solver) -> list:
    """Every generated function a solver holds: kernels, extractors and
    Laddder's per-rule shapes."""
    cache = solver.kernels
    fns = [k.fn for k in cache._kernels.values()]
    fns += list(cache._extractors.values())
    for shape in cache._shapes.values():
        members = vars(shape)
        fns += [members[name] for name in ("head_of", "firing") if name in members]
        fns += [grounder for _, _, grounder in members.get("literals", ())]
    return fns


def test_a_second_solver_compiles_nothing(engine_cls, cold, compiles):
    first_metrics, second_metrics = SolverMetrics(), SolverMetrics()
    first = solved(engine_cls, metrics=first_metrics)
    first_solved, first_updated = first.relations(), updated(first)
    assert compiles
    compiles.clear()
    second = solved(engine_cls, metrics=second_metrics)
    assert second.relations() == first_solved
    assert updated(second) == first_updated
    assert compiles == []
    # The counters say what this solver bound, warm or cold.
    assert second_metrics.rules_compiled == first_metrics.rules_compiled > 0
    assert second_metrics.replans_triggered == first_metrics.replans_triggered
    assert second_metrics.join_probes == first_metrics.join_probes


def test_solvers_share_code_and_nothing_else(engine_cls, cold):
    first, second = solved(engine_cls), solved(engine_cls)
    mine, theirs = generated_functions(first), generated_functions(second)
    assert mine and len(mine) == len(theirs)
    assert not {id(fn) for fn in mine} & {id(fn) for fn in theirs}
    assert not (
        {id(fn.__globals__) for fn in mine}
        & {id(fn.__globals__) for fn in theirs}
    )
    shared = {id(fn.__code__) for fn in mine} & {id(fn.__code__) for fn in theirs}
    assert len(shared) == len({id(fn.__code__) for fn in mine})


def test_interpreted_mode_is_unchanged(engine_cls, cold):
    config = SolverConfig(interpret=True)
    interpreted = solved(engine_cls, config=config)
    kernels = interpreted.kernels._kernels.values()
    assert kernels and not any(k.compiled for k in kernels)
    assert not any(hasattr(k.fn, "__kernel_source__") for k in kernels)
    compiled = solved(engine_cls)
    assert interpreted.relations() == compiled.relations()
    assert updated(interpreted) == updated(compiled)


def test_equal_rules_keep_their_own_constants(cold):
    """``1 == 1.0``, so two programs that differ only there have equal
    rules: they share a plan and a code object, never a constant."""
    results = []
    for literal in ("1", "1.0"):
        p = parse(f"o(X, N) :- e(X), N := kind(X, {literal}).")
        p.register_function("kind", lambda x, c: type(c).__name__)
        solver = SemiNaiveSolver(p)
        solver.add_facts("e", {(0,)})
        solver.solve()
        results.append(solver.relation("o"))
    assert results == [{(0, "int")}, {(0, "float")}]


def test_threads_building_one_program_agree(cold):
    results: list = [None] * 4
    barrier = threading.Barrier(len(results))

    def build(slot):
        barrier.wait()
        engine = (LaddderSolver, DRedLSolver)[slot % 2]
        results[slot] = solved(engine).relations()

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [solved(SemiNaiveSolver).relations()] * len(results)


def test_the_table_stays_within_its_bound(monkeypatch):
    """Filled past a small bound from the random-program generator, the
    table evicts, and an evicted entry compiles again to the same code."""
    bound = 8
    table = lru_cache(maxsize=bound)(compile_module._code.__wrapped__)
    monkeypatch.setattr(compile_module, "_code", table)
    edges = {(0, 1), (1, 2), (2, 0), (1, 1)}
    for shapes in ([1], [2, 3], [5, 6], [7], [1, 2, 5]):
        for collect in range(len(COLLECT_SHAPES)):
            prog = build_program(shapes, None, collect)
            results = []
            for engine in (SemiNaiveSolver, LaddderSolver, DRedLSolver):
                solver = engine(prog.copy())
                solver.add_facts("e0", edges)
                solver.add_facts("e1", {(b, a) for a, b in edges})
                solver.solve()
                results.append(solver.relations())
            assert results[1:] == results[:1] * 2
            assert table.cache_info().currsize <= bound
    assert table.cache_info().misses > bound


# -- checkpoints -----------------------------------------------------------


def singleton_instance():
    from repro.analyses import ANALYSES
    from repro.corpus import load_subject

    return ANALYSES["pointsto-singleton"](load_subject("minijavac", scale=0.5))


@pytest.mark.parametrize("name, engine_cls", [
    ("parent_laddder.ckpt", LaddderSolver),
    ("parent_dredl.ckpt", DRedLSolver),
    ("parent_seminaive.ckpt", SemiNaiveSolver),
])
def test_parent_checkpoints_restore_and_update_warm(name, engine_cls):
    """Three fixtures hold PROGRAM (``test_update_pipeline.py``'s) over
    FACTS plus the arc c->d: each restores after a live solver has filled
    the tables, and updates like it."""
    live = solved(engine_cls)
    live.update(insertions={"arc": {("c", "d", 1)}})
    restored = load_checkpoint(engine_cls, program(), FIXTURES / name)
    assert take_snapshot(restored, 1).digest() == take_snapshot(live, 1).digest()
    assert updated(restored) == updated(live)


def test_parent_annotated_and_singleton_checkpoints_restore_warm():
    """The other two fixtures, each restored after a live solver of its
    program has filled the tables."""
    live = LaddderSolver(tc_program())
    for pred, rows in tc_facts({(1, 2), (2, 3), (3, 1), (3, 4)}).items():
        live.add_facts(pred, rows)
    live.solve()
    restored = load_checkpoint(
        LaddderSolver, tc_program(), FIXTURES / "parent_annotated.ckpt"
    )
    batch = {"insertions": {"edge": {(4, 5)}}, "deletions": {"edge": {(3, 1)}}}
    assert restored.update(**batch).inserted == live.update(**batch).inserted
    assert restored.relations() == live.relations()

    instance = singleton_instance()
    live = instance.make_solver(LaddderSolver)
    restored = load_checkpoint(
        LaddderSolver, instance.program, FIXTURES / "parent_singleton_laddder.ckpt"
    )
    first = sorted(instance.facts["alloc"])[0]
    batch = {"deletions": {"alloc": {first}}}
    assert restored.update(**batch).deleted == live.update(**batch).deleted
    assert take_snapshot(restored, 2).digest() == take_snapshot(live, 2).digest()


def test_warm_and_cold_builds_write_the_same_checkpoint(engine_cls, cold):
    cold_bytes = dump_state(solved(engine_cls))
    warm = solved(engine_cls)
    assert dump_state(warm) == cold_bytes
    updated(warm)
    again = solved(engine_cls)
    updated(again)
    assert dump_state(again) == dump_state(warm)
