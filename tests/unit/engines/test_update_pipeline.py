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
from repro.config import SolverConfig
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


def test_update_books_update_seconds_only(engine_cls, program):
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


# -- the one relation container (repro.engines.base.Relations) ---------------


@pytest.fixture
def in_place(engine_cls, program):
    """A solved in-place engine (DRedL, Laddder) with *no* ``arc`` facts, so
    its recursive stratum has not touched a single relation yet."""
    if engine_cls.COMPONENT_STATE is None:
        pytest.skip("re-solving engines keep no component relations")
    solver = engine_cls(program)
    solver.add_facts("node", FACTS["node"])
    solver.solve()
    return solver


def test_relation_first_touched_in_a_failed_update_is_gone(in_place):
    from repro.datalog.errors import RollbackError
    from repro.robustness import GuardedSolver, inject

    before = [set(state.relations) for state in in_place._states]
    assert not any("dcand" in names for names in before)
    guarded = GuardedSolver(in_place, fallback=False)
    with inject("kernel.emit", at=3) as plan:
        with pytest.raises(RollbackError):
            guarded.update(insertions={"arc": FACTS["arc"]})
    assert plan.fired
    assert [set(state.relations) for state in in_place._states] == before
    # The same batch, unfaulted, creates them and lands on the reference.
    guarded.update(insertions={"arc": FACTS["arc"]})
    assert any("dcand" in state.relations for state in in_place._states)
    assert ("a", "c", 3) in in_place.relation("dist")


def test_sizing_a_relation_does_not_create_it(in_place):
    """``ComponentState.size`` is the oracle the first update's plans are
    costed by; a predicate nothing has touched has size 0 and stays
    untouched."""
    state = next(s for s in in_place._states if "dcand" in s.component.predicates)
    assert "dcand" not in state.relations
    assert state.size("dcand") == 0 and state.size("arc") == 0
    assert "dcand" not in state.relations and "arc" not in state.relations


def test_relation_map_pickles_as_a_plain_dict(in_place):
    import pickle

    from repro.engines.base import Relations

    in_place.update(insertions={"arc": FACTS["arc"]})
    for state in in_place._states:
        assert type(state.relations) is Relations
        restored = pickle.loads(pickle.dumps(state.relations))
        assert type(restored) is dict
        assert restored.keys() == state.relations.keys()


def test_parent_written_checkpoint_restores_and_keeps_updating(
    engine_cls, program
):
    """``tests/fixtures/parent_<engine>.ckpt`` was written by the commit
    before the shared container (plain-dict relation maps, a payload that
    still names its storage backend, FACTS plus the arc c->d) — it must
    restore to the same snapshot and update on."""
    from pathlib import Path

    from repro.engines.base import Relations
    from repro.engines.checkpoint import load_checkpoint
    from repro.service import take_snapshot

    if engine_cls.COMPONENT_STATE is None:
        pytest.skip("fixtures exist for the in-place engines")
    config = SolverConfig.from_env()
    name = {cls: n for n, cls in ENGINES.items()}[engine_cls]
    path = Path(__file__).parents[2] / "fixtures" / f"parent_{name}.ckpt"
    restored = load_checkpoint(engine_cls, program, path, config=config)
    assert all(type(s.relations) is Relations for s in restored._states)
    fresh = engine_cls(program, config=config)
    for pred, rows in FACTS.items():
        fresh.add_facts(pred, rows)
    fresh.solve()
    fresh.update(insertions={"arc": {("c", "d", 1)}})
    assert take_snapshot(restored, 1).digest() == take_snapshot(fresh, 1).digest()
    batch = {"insertions": {"arc": {("d", "a", 2)}}, "deletions": {"arc": {("a", "b", 1)}}}
    assert restored.update(**batch).inserted == fresh.update(**batch).inserted
    assert take_snapshot(restored, 2).digest() == take_snapshot(fresh, 2).digest()


def test_dredl_checkpoint_restores_in_its_aggregation_mode(program, tmp_path):
    """A DRedL checkpoint carries the engine's aggregation mode: a
    Ross–Sagiv solver restores (and rebuilds its fallback) as one and
    updates on equal to the live solver, while ``parent_dredl.ckpt``,
    written without the mode, restores in the default inflationary one."""
    from pathlib import Path

    from repro.engines import DRedLSolver
    from repro.engines.checkpoint import load_checkpoint, save_checkpoint

    live = DRedLSolver(program, aggregation="rosssagiv")
    for pred, rows in FACTS.items():
        live.add_facts(pred, rows)
    live.solve()
    save_checkpoint(live, tmp_path / "dredl.ckpt")
    restored = load_checkpoint(DRedLSolver, program, tmp_path / "dredl.ckpt")
    assert not restored.inflationary
    assert not restored.fresh().inflationary
    insertions, deletions = BATCHES["mixed"]
    batch = {"insertions": insertions, "deletions": deletions}
    assert restored.update(**batch).inserted == live.update(**batch).inserted
    assert restored.relations() == live.relations()
    parent = Path(__file__).parents[2] / "fixtures" / "parent_dredl.ckpt"
    assert load_checkpoint(DRedLSolver, program, parent).inflationary


def test_parent_written_seminaive_checkpoint_restores_declared_state(program):
    """``tests/fixtures/parent_seminaive.ckpt`` was written by the commit
    whose SemiNaive kept its running group totals (``_totals``) between
    updates (FACTS plus the arc c->d).  A restore sets only what the engine
    declares, equals the live solver, and updates on bit-equal to a
    from-scratch solve."""
    from pathlib import Path

    from repro.engines import SemiNaiveSolver
    from repro.engines.checkpoint import load_checkpoint
    from repro.service import take_snapshot

    def solved(facts):
        solver = SemiNaiveSolver(program, config=config)
        for pred, rows in facts.items():
            solver.add_facts(pred, rows)
        solver.solve()
        return solver

    config = SolverConfig.from_env()
    path = Path(__file__).parents[2] / "fixtures" / "parent_seminaive.ckpt"
    restored = load_checkpoint(SemiNaiveSolver, program, path, config=config)
    assert not hasattr(restored, "_totals")
    facts = {pred: set(rows) for pred, rows in FACTS.items()}
    facts["arc"].add(("c", "d", 1))
    live = solved(FACTS)
    live.update(insertions={"arc": {("c", "d", 1)}})
    assert take_snapshot(restored, 1).digest() == take_snapshot(live, 1).digest()
    for insertions, deletions in (
        ({("d", "a", 2)}, {("a", "b", 1)}),
        (set(), {("b", "c", 2)}),
        ({("a", "b", 1), ("b", "c", 2)}, {("c", "d", 1)}),
    ):
        restored.update(insertions={"arc": insertions}, deletions={"arc": deletions})
        facts["arc"] = (facts["arc"] - deletions) | insertions
        scratch = solved(facts)
        assert (
            take_snapshot(restored, 2).digest() == take_snapshot(scratch, 2).digest()
        )
