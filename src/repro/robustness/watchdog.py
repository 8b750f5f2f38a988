"""Fixpoint watchdogs: iteration, wall-clock, and ascending-chain budgets.

Every engine already has a hard iteration ceiling (``MAX_ITERATIONS``,
``MAX_ROUNDS``, ``MAX_TIMESTAMP``) that catches *globally* diverging
fixpoints.  A :class:`Budget` tightens and extends that:

* ``max_iterations`` — overrides the engine ceiling per solve, so a CI job
  can bound a known-small analysis far below the engine default;
* ``deadline`` — a wall-clock budget in seconds (``--deadline``), polled
  once per outer iteration/round so the cost is one ``monotonic()`` call
  per fixpoint step;
* ``max_chain`` — a strictly-ascending-chain counter for non-Noetherian
  lattices: each time a single aggregation group's total strictly
  changes, its chain length ticks; exceeding the budget
  means the lattice is climbing an infinite ascending chain (e.g. interval
  analysis without widening) and the solve would never settle.  This
  catches divergence *localized to one group* long before the global
  iteration ceiling would — and in DRedL's insertion sweep, which has no
  per-group guard at all, it is the only thing standing between a
  non-Noetherian lattice and an unbounded worklist loop.

All three trip a typed :class:`BudgetExceededError` instead of hanging,
and bump the ``watchdog_trips`` metrics counter.
"""

from __future__ import annotations

import time

from ..datalog.errors import BudgetExceededError

#: Default ascending-chain budget: generous enough that no legitimate
#: widened/finite-height analysis in the repo comes near it, small enough
#: to trip within seconds on a genuinely infinite chain.
DEFAULT_MAX_CHAIN = 100_000


class Budget:
    """Per-solve resource budgets; shared by all four engines.

    A solver owns one Budget (``solver.budget``, from the ``SolverConfig``
    fields of the same names); ``begin()`` is called at the top of every
    ``solve``/``update`` and resets the clock and the chain counters.  The
    polling helpers are written so the fully-disabled case costs one
    attribute load and one ``is None`` test."""

    __slots__ = ("max_iterations", "deadline", "max_chain", "_t0", "_chains")

    def __init__(
        self,
        max_iterations: int | None = None,
        deadline: float | None = None,
        max_chain: int | None = None,
    ):
        self.max_iterations = max_iterations
        self.deadline = deadline
        self.max_chain = DEFAULT_MAX_CHAIN if max_chain is None else max_chain
        self._t0 = 0.0
        self._chains: dict[tuple, int] = {}

    def begin(self) -> None:
        """Reset the wall clock and ascending-chain counters for a solve."""
        self._chains.clear()
        if self.deadline is not None:
            self._t0 = time.monotonic()

    def iterations(self, engine_default: int) -> int:
        """The iteration ceiling for this solve: the tighter of the
        engine's own ceiling and the configured budget."""
        if self.max_iterations is None:
            return engine_default
        return min(self.max_iterations, engine_default)

    def poll(self, context: str) -> None:
        """Raise if the wall-clock deadline has passed.  Call once per
        outer fixpoint iteration — not in inner loops."""
        if self.deadline is None:
            return
        elapsed = time.monotonic() - self._t0
        if elapsed > self.deadline:
            raise BudgetExceededError(
                f"deadline of {self.deadline:g}s exceeded after {elapsed:.3f}s "
                f"({context})"
            )

    def chain_advance(self, pred: str, key: tuple) -> None:
        """Record that aggregation group ``(pred, key)`` strictly changed
        its total; raise once a single group's chain outruns the budget —
        the signature of a non-Noetherian (infinite ascending chain)
        lattice under a non-widening analysis."""
        chains = self._chains
        k = (pred, key)
        n = chains.get(k, 0) + 1
        chains[k] = n
        if n > self.max_chain:
            raise BudgetExceededError(
                f"aggregation group {pred}{key!r} climbed a strictly-ascending "
                f"chain of length {n} (> {self.max_chain}); the lattice appears "
                "non-Noetherian — add widening or raise SolverConfig.max_chain"
            )
