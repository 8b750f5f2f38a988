"""Timing harness for initialization and per-change update measurements.

Mirrors the paper's protocol: "We ran each benchmark 4 times, dropped the
result of the first run to account for JVM warmup, and report the average
times of the remaining three runs."  Python has no JIT warm-up of that kind,
but the first run still pays allocator/caching costs, so we keep the
drop-first-average-rest protocol (configurable).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence, Type

from ..analyses.base import AnalysisInstance
from ..changes.base import Change
from ..config import SolverConfig
from ..engines.base import Solver
from ..metrics import SolverMetrics
from ..robustness import GuardedSolver


@dataclass
class UpdateMeasurement:
    """One change's measured update, with its observed impact."""

    label: str
    seconds: float
    impact: int
    work: int


@dataclass
class BenchmarkRun:
    """All measurements of one (analysis, engine, subject) combination."""

    analysis: str
    engine: str
    init_seconds: float
    updates: list[UpdateMeasurement] = field(default_factory=list)

    def update_times(self) -> list[float]:
        return [u.seconds for u in self.updates]


def time_initialization(
    instance: AnalysisInstance,
    engine_cls: Type[Solver],
    repeats: int = 4,
    drop_first: bool = True,
    metrics: SolverMetrics | None = None,
    config: SolverConfig | None = None,
    guard: bool = False,
) -> tuple[float, Solver]:
    """Initialization time under the paper's warm-up protocol; returns the
    mean and the last solved solver (reused for update runs).

    A ``metrics`` collector, when given, is attached to every repeat (its
    counters accumulate across them; enabled collection perturbs the
    timings, so profile runs and headline-number runs should be separate).
    Every repeat's solver is built with ``config`` (None: the
    environment's); ``guard=True`` wraps each repeat in a
    :class:`~repro.robustness.GuardedSolver`, so the measured time includes
    the transactional-update discipline.
    """
    times = []
    solver = None
    for _ in range(max(1, repeats)):
        solver = instance.make_solver(
            engine_cls, solve=False, metrics=metrics, config=config
        )
        if guard:
            solver = GuardedSolver(solver)
        start = time.perf_counter()
        solver.solve()
        times.append(time.perf_counter() - start)
    if drop_first and len(times) > 1:
        times = times[1:]
    return sum(times) / len(times), solver


def run_update_benchmark(
    instance: AnalysisInstance,
    engine_cls: Type[Solver],
    changes: Sequence[Change],
    repeats: int = 1,
    metrics: SolverMetrics | None = None,
    config: SolverConfig | None = None,
    guard: bool = False,
) -> BenchmarkRun:
    """Initialize once, then measure every change's incremental update.

    Change sequences from :mod:`repro.changes` are state-restoring, so
    ``repeats > 1`` re-runs the same sequence on the same solver; the first
    pass is dropped when ``repeats > 1`` (warm-up protocol).  ``config`` and
    ``guard`` are forwarded to :func:`time_initialization`, so with
    ``guard=True`` every measured update runs transactionally.
    """
    init_seconds, solver = time_initialization(
        instance, engine_cls, repeats=1, drop_first=False, metrics=metrics,
        config=config, guard=guard,
    )
    run = BenchmarkRun(
        analysis=instance.name, engine=engine_cls.__name__, init_seconds=init_seconds
    )
    passes: list[list[UpdateMeasurement]] = []
    for _ in range(max(1, repeats)):
        measurements = []
        for change in changes:
            start = time.perf_counter()
            stats = solver.update(
                insertions=change.insertions, deletions=change.deletions
            )
            elapsed = time.perf_counter() - start
            measurements.append(
                UpdateMeasurement(
                    label=change.label,
                    seconds=elapsed,
                    impact=stats.impact,
                    work=stats.work,
                )
            )
        passes.append(measurements)
    if len(passes) > 1:
        passes = passes[1:]
    # Average each change's time across the kept passes.
    kept = passes[0]
    for later in passes[1:]:
        for base, extra in zip(kept, later):
            base.seconds += extra.seconds
    for base in kept:
        base.seconds /= len(passes)
    run.updates = kept
    return run
