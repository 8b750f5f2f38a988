"""Guarded solving: the safety rails around the four engines.

The paper's correctness claim — an incremental update produces *exactly*
the state a from-scratch solve would — is only worth anything if a failed
update cannot leave the solver half-mutated.  This package supplies:

* :mod:`repro.robustness.faults` — a deterministic fault-injection harness
  with named sites in every engine's hot path, so tests can *prove* the
  recovery paths below actually fire;
* :mod:`repro.robustness.guard` — transactional update application:
  :class:`GuardedSolver` runs ``update`` against a per-thread undo log of
  touched relations/timelines/groups and on any exception rolls the solver
  back to a bit-equal pre-update state, then optionally degrades gracefully
  by re-solving from scratch with a fresh solver of the same engine;
* :mod:`repro.robustness.watchdog` — per-solve iteration and wall-clock
  budgets plus strictly-ascending-chain divergence detection, raising a
  typed :class:`BudgetExceededError` instead of hanging;
* :mod:`repro.robustness.selfcheck` — runtime invariant validation between
  strata (``--self-check`` / ``SolverConfig.self_check``), raising
  :class:`InvariantViolationError` with a diagnostic dump.

See docs/ROBUSTNESS.md for the guard/rollback model, the fault-site
registry, and the failure-mode table.
"""

from ..datalog.errors import (
    BudgetExceededError,
    CheckpointError,
    InvariantViolationError,
    RollbackError,
    SolverError,
)
from .faults import FAULT_SITES, FaultInjected, FaultPlan, inject
from .guard import GuardedSolver, UpdateGuard
from .selfcheck import check_component, check_solver
from .watchdog import Budget

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CheckpointError",
    "FAULT_SITES",
    "FaultInjected",
    "FaultPlan",
    "GuardedSolver",
    "InvariantViolationError",
    "RollbackError",
    "SolverError",
    "UpdateGuard",
    "check_component",
    "check_solver",
    "inject",
]
