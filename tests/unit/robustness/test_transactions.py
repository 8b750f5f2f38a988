"""The undo log belongs to the thread that opened the transaction.

Guarded updates running at once on different threads must not see each
other's inverses, and one thread can hold at most one open transaction.
"""

import sys
import threading

import pytest

from repro.datalog.errors import RollbackError, SolverError
from repro.metrics import TraceSink
from repro.robustness import GuardedSolver, UpdateGuard

from ..engines.helpers import load, tc_facts, tc_program
from .test_guard import ENGINES, deep_state


class _FailingGate(TraceSink):
    """Blocks the first stratum of an update until released, then fails
    it — by then the update has already staged and exported its EDB diff."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def on_stratum_start(self, index, predicates):
        self.entered.set()
        assert self.release.wait(timeout=30), "test never released the gate"
        raise RuntimeError("poisoned stratum")


class _FailWhenArmed(TraceSink):
    """Fails the next update at its first stratum once armed."""

    def __init__(self):
        self.armed = False

    def on_stratum_start(self, index, predicates):
        if self.armed:
            self.armed = False
            raise RuntimeError("poisoned stratum")


def _run(target, outcome):
    def body():
        try:
            target()
        except Exception as exc:  # reported to the main thread
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread


@pytest.mark.parametrize("engine", ENGINES)
def test_concurrent_updates_keep_separate_logs(engine):
    failing = load(engine, tc_program(), tc_facts({(1, 2), (2, 3)}))
    committing = load(engine, tc_program(), tc_facts({(5, 6), (6, 7)}))
    before = deep_state(failing)
    gate = _FailingGate()
    failing.metrics.sink = gate

    failed: list = []
    first = _run(
        lambda: GuardedSolver(failing, fallback=False).update(
            insertions={"edge": {(3, 4)}}, deletions={"edge": {(1, 2)}}
        ),
        failed,
    )
    assert gate.entered.wait(timeout=30), "the failing update never started"
    # The first transaction is open and has journaled its EDB diff; the
    # second runs start to finish on its own thread meanwhile.
    committed: list = []
    second = _run(
        lambda: GuardedSolver(committing, fallback=False).update(
            insertions={"edge": {(7, 5)}}, deletions={"edge": {(5, 6)}}
        ),
        committed,
    )
    second.join(timeout=30)
    gate.release.set()
    first.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()

    assert committed == [None]
    assert isinstance(failed[0], RollbackError)
    assert deep_state(failing) == before
    reference = load(engine, tc_program(), tc_facts({(6, 7), (7, 5)}))
    assert committing.relations() == reference.relations()


def test_nested_install_in_one_thread_raises():
    solver = load(ENGINES[0], tc_program(), tc_facts({(1, 2), (2, 3)}))
    before = deep_state(solver)
    outer = UpdateGuard(solver).install()
    try:
        with pytest.raises(SolverError, match="open transaction"):
            UpdateGuard(solver).install()
        # The refused install left the outer transaction open and journaling.
        solver.update(insertions={"edge": {(3, 4)}}, deletions={"edge": {(1, 2)}})
    finally:
        outer.rollback()
    assert deep_state(solver) == before
    # Closed: the thread may open the next one.
    UpdateGuard(solver).install().commit()


@pytest.mark.parametrize("engine", ENGINES[:2])
def test_many_threads_commit_and_roll_back_independently(engine):
    """More threads than cores, a short switch interval, every other update
    failing: each solver ends where its own committed updates lead."""
    threads, steps = 4, 12
    solvers, sinks, edges = [], [], []
    for lane in range(threads):
        ring = {(lane * 10 + i, lane * 10 + (i + 1) % 4) for i in range(4)}
        solver = load(engine, tc_program(), tc_facts(ring))
        solver.metrics.sink = sink = _FailWhenArmed()
        solvers.append(solver)
        sinks.append(sink)
        edges.append(set(ring))

    def churn(lane):
        guarded = GuardedSolver(solvers[lane], fallback=False)
        for step in range(steps):
            edge = (lane * 10 + step % 4, lane * 10 + 5)
            present = edge in edges[lane]
            change = {"edge": {edge}}
            sinks[lane].armed = step % 2 == 1
            try:
                if present:
                    guarded.update(deletions=change)
                else:
                    guarded.update(insertions=change)
            except RollbackError:
                continue
            edges[lane] ^= {edge}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes: list = []
        workers = [
            _run(lambda lane=lane: churn(lane), outcomes) for lane in range(threads)
        ]
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [None] * threads
    for lane, solver in enumerate(solvers):
        assert solver.metrics.rollbacks == steps // 2
        reference = load(engine, tc_program(), tc_facts(edges[lane]))
        assert solver.relations() == reference.relations()
