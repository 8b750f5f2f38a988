"""When a kernel is planned (docs/PERFORMANCE.md): every solve plans greedily,
and a resolving engine (Naive, SemiNaive) never plans any other way.  An
in-place engine binds a component's kernel tables at most twice in a
solver's life — from the greedy plans at solve, and once by cost against the
solved sizes at the first update visit after a solve or a checkpoint
restore.  Relation sizes that drift afterwards, however far, compile and
re-plan nothing."""

import pytest

from repro.config import SolverConfig
from repro.datalog import parse
from repro.datalog.errors import RollbackError
from repro.datalog.planning import no_sizes
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.engines.checkpoint import load_checkpoint, save_checkpoint
from repro.lattices import ConstantLattice, lub
from repro.metrics import SolverMetrics
from repro.robustness import GuardedSolver, inject
from repro.service.snapshot import take_snapshot

TC = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
    .export tc.
"""

IN_PLACE = pytest.mark.parametrize("engine", [LaddderSolver, DRedLSolver])


def chain(start: int, stop: int) -> set[tuple]:
    return {(i, i + 1) for i in range(start, stop)}


def solved(engine, metrics=None):
    solver = engine(parse(TC), metrics=metrics or SolverMetrics(enabled=True))
    solver.add_facts("edge", chain(0, 3))
    solver.solve()
    return solver


def counting_binds(solver) -> list[tuple[int, bool]]:
    """Record ``(component index, sized)`` for every table binding."""
    binds = []
    bind = solver._bind_kernels

    def recording(state, oracle):
        binds.append((solver._states.index(state), oracle is not no_sizes))
        return bind(state, oracle)

    solver._bind_kernels = recording
    return binds


@IN_PLACE
def test_sizes_that_drift_after_the_first_update_replan_nothing(engine):
    metrics = SolverMetrics(enabled=True)
    solver = solved(engine, metrics)
    solver.update(insertions={"edge": chain(3, 4)})
    assert metrics.replans_triggered > 0  # the second binding
    compiled, replans = metrics.rules_compiled, metrics.replans_triggered
    for start in range(4, 44, 8):  # edge grows 4 -> 44 rows
        solver.update(insertions={"edge": chain(start, start + 8)})
    assert len(solver.relation("edge")) >= 10 * 4
    assert metrics.rules_compiled == compiled
    assert metrics.replans_triggered == replans
    assert len(solver.relation("tc")) == 44 * 45 // 2


@IN_PLACE
def test_a_restored_solver_binds_each_component_once(engine, tmp_path):
    solver = solved(engine)
    solver.update(insertions={"edge": chain(3, 5)})
    path = tmp_path / "tc.ckpt"
    save_checkpoint(solver, path)

    metrics = SolverMetrics(enabled=True)
    restored = load_checkpoint(engine, parse(TC), path, metrics=metrics)
    binds = counting_binds(restored)
    for start in range(5, 45, 8):
        restored.update(insertions={"edge": chain(start, start + 8)})
    assert binds, "the updates visited no component"
    assert sorted(binds) == sorted(set(binds))
    assert all(sized for _, sized in binds)
    # Nothing was planned greedily in this solver, so nothing is re-planned.
    assert metrics.replans_triggered == 0
    assert restored.relation("tc") == solved_reference(chain(0, 45))


def solved_reference(edges: set[tuple]) -> frozenset[tuple]:
    reference = LaddderSolver(parse(TC))
    reference.add_facts("edge", edges)
    reference.solve()
    return reference.relation("tc")


@IN_PLACE
def test_a_rolled_back_first_update_replays_like_an_unfaulted_twin(engine):
    batches = [chain(3, 5), chain(5, 13), chain(13, 21)]
    twin_metrics = SolverMetrics(enabled=True)
    twin = solved(engine, twin_metrics)
    for edges in batches:
        twin.update(insertions={"edge": edges})

    metrics = SolverMetrics(enabled=True)
    guarded = GuardedSolver(solved(engine, metrics), fallback=False)
    with inject("kernel.emit", at=2) as plan:
        with pytest.raises(RollbackError):
            guarded.update(insertions={"edge": batches[0]})
    assert plan.fired
    for edges in batches:
        guarded.update(insertions={"edge": edges})
    assert take_snapshot(guarded, 0).digest() == take_snapshot(twin, 0).digest()
    assert metrics.rules_compiled == twin_metrics.rules_compiled
    assert metrics.replans_triggered == twin_metrics.replans_triggered


def tc_beside_constprop():
    """Two independent components: an update to ``edge`` skips ``val``'s."""
    program = parse(
        TC
        + """
        cval(V, C) :- lit(V, N), C := const(N).
        cval(V, C) :- copy(V, W), val(W, C).
        val(V, lub<C>) :- cval(V, C).
        .export val.
        """
    )
    program.register_function("const", ConstantLattice.const)
    program.register_aggregator("lub", lub(ConstantLattice()))
    return program


@IN_PLACE
def test_a_restored_solver_self_checks_the_components_an_update_skips(
    engine, tmp_path
):
    config = SolverConfig.from_env(self_check=True)
    solver = engine(tc_beside_constprop(), config=config)
    solver.add_facts("edge", chain(0, 3))
    solver.add_facts("lit", {("a", 1), ("b", 2)})
    solver.add_facts("copy", {("c", "a"), ("c", "b"), ("d", "a")})
    solver.solve()
    path = tmp_path / "mixed.ckpt"
    save_checkpoint(solver, path)

    restored = GuardedSolver(
        load_checkpoint(engine, tc_beside_constprop(), path, config=config),
        fallback=False,
    )
    restored.update(insertions={"edge": chain(3, 5)})
    assert restored.relation("val") == solver.relation("val")
    assert len(restored.relation("tc")) == 5 * 6 // 2


@pytest.mark.parametrize("interpret", [False, True], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("engine", [NaiveSolver, SemiNaiveSolver])
def test_a_resolving_engine_plans_every_kernel_greedily(engine, interpret):
    def run(engine, metrics=None):
        solver = engine(
            tc_beside_constprop(),
            metrics=metrics,
            config=SolverConfig.from_env(interpret=interpret),
        )
        solver.add_facts("edge", chain(0, 3))
        solver.add_facts("lit", {("a", 1), ("b", 2)})
        solver.add_facts("copy", {("c", "a"), ("d", "a")})
        solver.solve()
        solver.update(
            insertions={"edge": chain(3, 6), "copy": {("c", "b")}},
            deletions={"edge": {(0, 1)}},
        )
        return solver

    metrics = SolverMetrics(enabled=True)
    solver = run(engine, metrics)
    keys = list(solver.kernels._kernels)
    assert keys, "nothing was planned"
    assert not any(sized for *_, sized in keys)
    assert metrics.replans_triggered == 0
    assert solver.relations() == run(LaddderSolver).relations()
