"""Transactional update application with rollback and graceful degradation.

The engines mutate deep structure in place during an epoch — exported
stores, per-component relations and timelines, aggregation group state,
staged fact sets.  An exception mid-update (a bad aggregator, a watchdog
trip, a kernel bug) would otherwise strand that state half-mutated, with
the exported view disagreeing with the internal support structure.

:class:`UpdateGuard` makes one update transactional with an **undo log**:
every mutable container touched during the update appends the *inverse* of
each mutation as a ``(bound_method, *args)`` entry into one shared journal.
On success, :meth:`UpdateGuard.commit` throws the journal away; on failure,
:meth:`UpdateGuard.rollback` replays it in reverse, restoring the solver to
a bit-equal pre-update state.  Cost is O(tuples touched), not O(state) —
the same asymptotics the paper's incrementality argument rests on, so
guarding does not forfeit the speedup being measured.

:class:`GuardedSolver` wraps any engine with that discipline, plus
**graceful degradation**: after a rollback it can rebuild the answer from
scratch with the reference semi-naive engine on the post-change facts and
swap the result in, so one poisoned epoch degrades to a from-scratch solve
instead of an outage.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..datalog.errors import BudgetExceededError, RollbackError
from ..engines.relation import RelationStore

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..engines.base import FactChanges, Solver, UpdateStats


# How a declared piece of engine state (``STATE``: attribute -> kind, on
# every solver and component-state class) is mutated during an update —
# all a transaction needs to know to protect it.  Checkpoints persist every
# declared attribute regardless of kind.
#: Rebound or journaled by its owner; restoring the reference suffices.
PLAIN = "plain"
#: Journaling containers (a RelationStore, or dicts nesting relations or
#: aggregation groups): each records inverse mutations into an undo log.
JOURNALED = "journaled"
#: ``pred -> key -> value`` mutated by plain dict assignment: snapshot by
#: value.
ASSIGNED = "assigned"


def declared_state(owner) -> dict[str, object]:
    """``attribute -> live value`` for everything ``owner`` (a solver or a
    component state) declares in its ``STATE``."""
    return {name: getattr(owner, name) for name in owner.STATE}


class UpdateGuard:
    """One transaction over a solver's mutable state.

    ``install()`` reads the engine's ``STATE`` declaration
    (:mod:`repro.engines.base`): it threads a shared undo list through every
    journaling container declared there (exported store, component
    relations, timelines, aggregation groups) and snapshots the few
    structures that are mutated by plain assignment instead (DRed group
    totals, semi-naive running totals, the arity map).  Exactly one of
    ``commit()`` / ``rollback()`` must follow.
    """

    def __init__(self, solver: "Solver"):
        self.solver = solver
        self.undo: list[tuple] = []
        #: every object whose ``journal`` attribute we set; detached on exit.
        self._journaled: list = []
        #: attribute-reference restores: (obj, attr, value-before).
        self._attr_restores: list[tuple] = []
        #: dicts restored by clear+update (identity is shared, e.g. arities).
        self._dict_restores: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _attach(self, obj) -> None:
        obj.journal = self.undo
        self._journaled.append(obj)

    def _attach_all(self, value) -> None:
        """Thread the undo log through every journaling container inside a
        ``JOURNALED`` piece of state: a store and its relations, or a dict
        of relations, or a dict of ``key -> group`` dicts.  Laddder keeps a
        group per aggregation key, so the leaves are attached in bulk."""
        if isinstance(value, RelationStore):
            self._attach(value)
            value = value.relations
        undo = self.undo
        for inner in value.values():
            if isinstance(inner, dict):
                for group in inner.values():
                    group.journal = undo
                self._journaled.extend(inner.values())
            else:
                inner.journal = undo
                self._journaled.append(inner)

    def _protect(self, owner) -> None:
        """Cover everything ``owner`` (the solver or one of its component
        states) declares in ``STATE``, by the kind it declares."""
        for name, value in declared_state(owner).items():
            kind = owner.STATE[name]
            if kind == ASSIGNED:
                value = {pred: dict(group) for pred, group in value.items()}
            elif kind == JOURNALED:
                self._attach_all(value)
            # Every kind also gets its reference restored, so a transaction
            # that rebinds an attribute (a solve() under the guard replaces
            # the stores) rolls back too.
            self._attr_restores.append((owner, name, value))

    def install(self) -> "UpdateGuard":
        solver = self.solver
        solver._undo = self.undo

        # Base-class structures mutated by plain assignment: snapshot-and-
        # restore.  arities is shared by identity with every relation store,
        # so it is restored in place; the dict itself only ever *gains*
        # entries (a new fact predicate fixes its arity in _check_row).
        self._dict_restores.append((solver.arities, dict(solver.arities)))
        self._attr_restores.append((solver, "last_stats", solver.last_stats))
        # Provenance annotations (docs/PROVENANCE.md) roll back alongside
        # the tuples they describe.
        if solver.provenance is not None:
            self._attach(solver.provenance)

        # The engine's own state, as the engine declares it.  Component
        # states also take the log themselves, so relations they create
        # mid-update inherit it.
        self._protect(solver)
        for comp in solver._states:
            self._attach(comp)
            self._protect(comp)
        return self

    # -- resolution --------------------------------------------------------

    def _detach(self) -> None:
        for obj in self._journaled:
            obj.journal = None
        self._journaled.clear()
        self.solver._undo = None

    def commit(self) -> None:
        """The update succeeded: discard the journal and detach."""
        self._detach()
        self.undo.clear()

    def rollback(self) -> None:
        """Replay the journal in reverse, restoring bit-equal pre-update
        state.  Journals are detached *first* so the inverse operations do
        not journal themselves."""
        self._detach()
        for entry in reversed(self.undo):
            entry[0](*entry[1:])
        self.undo.clear()
        for obj, attr, value in self._attr_restores:
            setattr(obj, attr, value)
        self._attr_restores.clear()
        for live, snapshot in self._dict_restores:
            live.clear()
            live.update(snapshot)
        self._dict_restores.clear()


class GuardedSolver:
    """Drop-in wrapper making ``update``/``solve`` failure-safe.

    * ``update`` runs under an :class:`UpdateGuard`.  On any exception the
      solver is rolled back to bit-equal pre-update state; then either the
      (typed) error propagates — wrapped as :class:`RollbackError` with the
      cause chained — or, with ``fallback=True``, the answer is recomputed
      from scratch by the reference semi-naive engine on the post-change
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
            return solver._exported_diff(before, reference.relations())
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
        """Degrade gracefully: re-solve from scratch with the reference
        semi-naive engine on the post-change facts and make it the inner
        solver."""
        from ..engines.seminaive import SemiNaiveSolver

        solver = self.solver
        reference = SemiNaiveSolver(
            solver.source_program, metrics=solver.metrics, config=solver.config
        )
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
