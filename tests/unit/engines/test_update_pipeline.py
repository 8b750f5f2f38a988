"""The one update pipeline: every engine publishes the same ``UpdateStats``.

``Solver.update`` is written once (``repro.engines.base``); the engines only
supply per-stratum strategies.  So for any batch, whichever engine runs it,
``inserted``/``deleted`` must be exactly the before/after set difference of
``relations()`` over the exported predicates — exported EDB predicates
included — and ``last_stats`` must be the object ``update`` returned.
"""

import inspect
import pkgutil
from importlib import import_module

import pytest

import repro.engines
from repro.datalog import parse
from repro.engines import Solver
from repro.lattices import ChainLattice, glb
from repro.metrics import SolverMetrics
from repro.service.session import ENGINES

# arc: exported EDB.  dcand/dist: a recursive stratum through a lattice
# aggregation (min-cost paths, costs capped so the chain is finite).
# unlinked: a stratum negating the aggregated one.
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
BATCHES = {
    "insert": ({"arc": {("c", "d", 1)}}, None),
    "delete": (None, {"arc": {("b", "c", 2)}}),
    "mixed": ({"arc": {("c", "a", 4), ("b", "d", 3)}}, {"arc": {("a", "b", 1)}}),
    # An unexported EDB predicate plus a fact that is already present.
    "redundant": ({"node": {("e",)}, "arc": {("a", "b", 1)}}, None),
}


@pytest.fixture
def program():
    p = parse(PROGRAM)
    p.register_function("capadd", lambda a, b: min(a + b, 99))
    p.register_aggregator("glbc", glb(ChainLattice(list(range(100)))))
    return p


@pytest.fixture
def solver(engine_cls, program):
    """A fresh solver of each engine, loaded with FACTS and solved."""
    solver = engine_cls(program)
    for pred, rows in FACTS.items():
        solver.add_facts(pred, rows)
    solver.solve()
    return solver


def relations_diff(before, after):
    inserted = {p: after[p] - before[p] for p in after if after[p] - before[p]}
    deleted = {p: before[p] - after[p] for p in after if before[p] - after[p]}
    return inserted, deleted


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_stats_are_the_relations_diff(solver, batch):
    insertions, deletions = BATCHES[batch]
    before = solver.relations()
    stats = solver.update(insertions=insertions, deletions=deletions)
    inserted, deleted = relations_diff(before, solver.relations())
    assert stats.inserted == inserted
    assert stats.deleted == deleted
    assert stats.impact == sum(map(len, inserted.values())) + sum(
        map(len, deleted.values())
    )
    assert solver.last_stats is stats


def test_exported_edb_rows_are_reported(solver):
    stats = solver.update(insertions={"arc": {("c", "d", 1)}})
    assert stats.inserted["arc"] == {("c", "d", 1)}
    assert ("a", "d", 4) in stats.inserted["dist"]
    assert ("a", "d") in stats.deleted["unlinked"]


def test_update_books_update_seconds_only(engine_cls, program, monkeypatch):
    monkeypatch.setenv("REPRO_NO_IMPACT", "1")
    metrics = SolverMetrics(enabled=True)
    solver = engine_cls(program, metrics=metrics)
    solver.add_facts("arc", FACTS["arc"])
    solver.solve()
    solved = metrics.solve_seconds
    solver.update(insertions={"arc": {("c", "d", 1)}})
    assert metrics.solve_seconds == solved
    assert metrics.update_seconds > 0.0


def test_pipeline_is_written_once():
    """The guard against re-forking: no class under ``repro.engines`` carries
    its own epoch skeleton beside ``Solver``'s."""
    classes = set()
    for info in pkgutil.walk_packages(repro.engines.__path__, "repro.engines."):
        module = import_module(info.name)
        classes.update(
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        )
    assert classes >= {Solver, *ENGINES.values()}
    for cls in classes - {Solver}:
        for name in ("update", "solve", "_partial_solve"):
            assert name not in vars(cls), f"{cls.__qualname__} defines {name}"
