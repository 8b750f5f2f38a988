"""Transactional update application with rollback and graceful degradation.

The engines mutate deep structure in place during an epoch — exported
stores, per-component relations and timelines, aggregation group state,
staged fact sets.  An exception mid-update (a bad aggregator, a watchdog
trip, a kernel bug) would otherwise strand that state half-mutated, with
the exported view disagreeing with the internal support structure.

:class:`UpdateGuard` makes one update transactional with an **undo log**:
while a transaction is open on a thread, every mutator of engine state on
that thread appends the *inverse* of its mutation to the log held in
:data:`TRANSACTION`, as a ``(function, *args)`` entry.  On success,
:meth:`UpdateGuard.commit` throws the log away; on failure,
:meth:`UpdateGuard.rollback` replays it in reverse, restoring the solver to
a bit-equal pre-update state.  Cost is O(tuples touched), not O(state) —
the same asymptotics the paper's incrementality argument rests on, so
guarding does not forfeit the speedup being measured.  A transaction never
leaves its thread, so solvers updated concurrently on different threads
keep separate logs.

:class:`GuardedSolver` wraps any engine with that discipline, plus
**graceful degradation**: after a rollback it can rebuild the answer from
scratch with a fresh solver of the same engine on the post-change facts
and swap the result in, so one poisoned epoch degrades to a from-scratch
solve instead of an outage.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..datalog.errors import BudgetExceededError, RollbackError, SolverError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..engines.base import FactChanges, Solver, UpdateStats


class _Transaction(threading.local):
    def __init__(self):
        #: The undo log of the transaction open on this thread, or None.
        self.undo: list | None = None


#: Per-thread transaction state.  Journaling mutators read
#: ``TRANSACTION.undo`` once per call and append their inverse when it is
#: set; only :class:`UpdateGuard` sets or clears it.
TRANSACTION = _Transaction()


class UpdateGuard:
    """One transaction over a solver's mutable state, on the calling thread.

    ``install()`` opens the thread's undo log and records, from the
    engine's ``STATE`` names (:mod:`repro.engines.base`), what rollback
    restores besides replaying it: the reference each declared attribute
    holds, so an update that rebinds one rolls back too.  Every container
    among them is mutated in place only by journaling code, so nothing is
    copied.  Exactly one of ``commit()`` / ``rollback()`` must follow, on
    the same thread.
    """

    def __init__(self, solver: "Solver"):
        self.solver = solver
        self.undo: list[tuple] = []
        #: attribute-reference restores: (obj, attr, value-before).
        self._attr_restores: list[tuple] = []

    def install(self) -> "UpdateGuard":
        if TRANSACTION.undo is not None:
            raise SolverError(
                "this thread already has an open transaction; commit or "
                "roll it back before installing another"
            )
        solver = self.solver
        restores = self._attr_restores
        restores.append((solver, "last_stats", solver.last_stats))
        for owner in (solver, *solver._states):
            for name in owner.STATE:
                restores.append((owner, name, getattr(owner, name)))
        TRANSACTION.undo = self.undo
        return self

    def commit(self) -> None:
        """The update succeeded: close the log and discard it."""
        TRANSACTION.undo = None
        self.undo.clear()
        self._attr_restores.clear()

    def rollback(self) -> None:
        """Replay the log in reverse, restoring bit-equal pre-update state.
        The log is closed *first* so the inverse operations do not journal
        themselves."""
        TRANSACTION.undo = None
        for entry in reversed(self.undo):
            entry[0](*entry[1:])
        self.undo.clear()
        for obj, attr, value in self._attr_restores:
            setattr(obj, attr, value)
        self._attr_restores.clear()


class GuardedSolver:
    """Drop-in wrapper making ``update``/``solve`` failure-safe.

    * ``update`` runs under an :class:`UpdateGuard`.  On any exception the
      solver is rolled back to bit-equal pre-update state; then either the
      (typed) error propagates — wrapped as :class:`RollbackError` with the
      cause chained — or, with ``fallback=True``, the answer is recomputed
      from scratch by a fresh solver of the same engine on the post-change
      facts and swapped in as the new inner solver.
    * Watchdog trips (:class:`BudgetExceededError`) always roll back and
      re-raise: the caller set a resource budget, and a from-scratch
      fallback would burn strictly more of it.
    * With ``config.self_check`` on, the whole-state invariant validation
      runs *before* commit, so a corrupted-but-quiet update rolls back too.

    Everything else (``relation``, ``add_facts``, ``metrics``, ...)
    delegates to the wrapped solver — tests that compare a guarded and an
    unguarded engine can treat the two interchangeably.
    """

    def __init__(self, solver: "Solver", fallback: bool = True):
        self.solver = solver
        self.fallback = fallback

    def __getattr__(self, name: str):
        return getattr(self.solver, name)

    # -- guarded lifecycle -------------------------------------------------

    def solve(self) -> None:
        try:
            self.solver.solve()
        except BudgetExceededError:
            raise
        except Exception:
            if not self.fallback:
                raise
            # From-scratch solve has no pre-state worth restoring; degrade
            # by replacing the engine outright.
            self._adopt_reference()

    def update(
        self,
        insertions: "FactChanges | None" = None,
        deletions: "FactChanges | None" = None,
    ) -> "UpdateStats":
        solver = self.solver
        guard = UpdateGuard(solver).install()
        try:
            stats = solver.update(insertions=insertions, deletions=deletions)
            if solver.self_check:
                self._final_self_check()
        except BudgetExceededError:
            guard.rollback()
            solver.metrics.rollbacks += 1
            raise
        except Exception as exc:
            guard.rollback()
            solver.metrics.rollbacks += 1
            if not self.fallback:
                raise RollbackError(
                    f"update failed ({type(exc).__name__}: {exc}) and was "
                    f"rolled back to the pre-update state"
                ) from exc
            before = solver.relations()
            reference = self._adopt_reference(insertions, deletions)
            reference.last_stats = _exported_diff(before, reference.relations())
            return reference.last_stats
        else:
            guard.commit()
            return stats

    # -- internals ---------------------------------------------------------

    def _final_self_check(self) -> None:
        """Whole-solver invariant validation before commit: catches
        corruption that per-component checks inside the engine cannot see
        (components the epoch skipped, exported-store drift)."""
        from .selfcheck import check_solver

        solver = self.solver
        t0 = time.perf_counter()
        try:
            check_solver(solver)
        finally:
            solver.metrics.selfcheck_seconds += time.perf_counter() - t0

    def _adopt_reference(self, insertions=None, deletions=None):
        """Degrade gracefully: re-solve from scratch with a fresh solver of
        the failed one's own engine on the post-change facts and make it
        the inner solver."""
        solver = self.solver
        reference = solver.fresh()
        for pred, rows in solver._facts.items():
            if rows:
                reference.add_facts(pred, rows)
        # Stage the epoch's change on top of the (rolled-back, pre-update)
        # facts, then solve once.
        reference._normalize_changes(insertions, deletions)
        reference.solve()
        solver.metrics.fallback_resolves += 1
        self.solver = reference
        return reference


def _exported_diff(before, after) -> "UpdateStats":
    """The ``UpdateStats`` of a fallback epoch, as ``Solver.update`` returns
    them: ``before`` and ``after`` are ``relations()`` of one program."""
    from ..engines.base import UpdateStats

    stats = UpdateStats()
    for pred, new in after.items():
        if new - before[pred]:
            stats.inserted[pred] = set(new - before[pred])
        if before[pred] - new:
            stats.deleted[pred] = set(before[pred] - new)
    return stats
