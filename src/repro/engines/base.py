"""The common solver interface and the one update pipeline.

All four engines (naive, semi-naive, DRedL, Laddder) are drop-in
replacements behind this interface, mirroring how Laddder replaced DRedL
inside IncA/Viatra (paper Section 7: "the measurements of DRedL and Laddder
use the same analysis specification and back end library, except that we
configured different fixpoint algorithms").

Lifecycle::

    solver = SomeSolver(program)
    solver.add_facts("alloc", [("s", "S", "run"), ...])
    solver.solve()                      # initial (from-scratch) analysis
    solver.relation("ptlub")            # pruned, timeless exported view
    stats = solver.update(insertions={...}, deletions={...})   # one epoch

``relation`` returns the *exported* view: aggregated predicates are pruned
to the final aggregate per group; intermediate inflationary results and
timestamps are never visible (paper Section 4.1, postprocessing).

:meth:`Solver.solve` and :meth:`Solver.update` are written once, here.  An
epoch is: normalise and stage the EDB diff, walk the strata bottom-up
(skip a stratum none of whose inputs changed; budget, self-check), fold
each stratum's exported diff into the pending diff its downstream strata
read, publish :class:`UpdateStats`.  An engine is a *per-stratum
strategy* plugged into that driver: :meth:`Solver._solve_stratum` and
:meth:`Solver._update_stratum`, plus a ``STATE`` declaration of what it
mutates (DESIGN.md, "One update pipeline").
"""

from __future__ import annotations

import hashlib
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from ..config import SolverConfig
from ..datalog.ast import Literal, Rule
from ..datalog.errors import BudgetExceededError, SolverError, ValidationError
from ..datalog.normalize import normalize
from ..datalog.planning import delta_occurrences, no_sizes
from ..datalog.program import Program
from ..datalog.stratify import Component
from ..metrics import SolverMetrics
from ..robustness.guard import ASSIGNED, PLAIN, TRANSACTION
from ..robustness.watchdog import Budget
from .aggspec import AggSpec, compile_agg_specs
from .compile import KernelCache
from .prepare import prepare
from .relation import RelationStore

FactChanges = Mapping[str, Iterable[tuple]]

#: One stratum's exported diff: pred -> (added rows, removed rows).
StratumDiff = dict[str, tuple[set[tuple], set[tuple]]]


def declared_state(owner) -> dict[str, object]:
    """``attribute -> live value`` for everything ``owner`` (a solver or a
    component state) declares in its ``STATE``."""
    return {name: getattr(owner, name) for name in owner.STATE}


def program_hash(program: Program) -> str:
    """Stable fingerprint of a program's rules (order-sensitive): what a
    checkpoint records and a restoring solver must match."""
    text = "\n".join(repr(rule) for rule in program.rules)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class UpdateStats:
    """What one epoch cost and touched — the measurements of Section 7."""

    #: Exported tuples inserted/deleted by this update, per predicate.
    inserted: dict[str, set[tuple]] = field(default_factory=dict)
    deleted: dict[str, set[tuple]] = field(default_factory=dict)
    #: Internal work counter (derivation deltas processed); engine-specific
    #: but comparable between runs of the same engine.
    work: int = 0

    @property
    def impact(self) -> int:
        """Section 3's impact measure: number of affected output tuples."""
        return sum(len(s) for s in self.inserted.values()) + sum(
            len(s) for s in self.deleted.values()
        )


class Relations(dict):
    """``pred -> relation``, created on first touch by ``create(pred)``.

    The one create-on-miss container of the engines.  Kernels and sweeps
    resolve relations on every probe; the bound ``__getitem__`` of this dict
    is what they receive as ``lookup``, so the hit path is one C-level dict
    lookup with no Python frame, and only an actual miss pays ``create``.
    """

    __slots__ = ("create",)

    def __init__(self, create: Callable[[str], object], items=()):
        super().__init__(items)
        self.create = create

    def __reduce__(self):
        # Checkpoints capture relation maps; ``create`` (a bound method of
        # the owning state: plans, kernels, registered callables) must not
        # travel with them, so the map pickles as a plain dict and
        # :meth:`ComponentState.adopt` rewraps it.
        return (dict, (), None, None, iter(self.items()))

    def __missing__(self, pred: str):
        relation = self[pred] = self.create(pred)
        return relation


class ComponentState:
    """Compiled plans plus live state for one dependency component of an
    engine that maintains its strata in place (DRedL, Laddder).

    Subclasses supply the relation factory (``new_relation``) and their
    aggregation state (``reset``/``state_size``) and extend ``STATE``.
    """

    STATE = {"relations": PLAIN}

    def __init__(self, component: Component, program: Program, arities: dict):
        self.component = component
        self.arities = arities
        #: Probe-counting collector for relations created from here on;
        #: refreshed, like the stored state itself, by ``Solver._reset``.
        self.metrics: SolverMetrics | None = None
        self.specs: dict[str, AggSpec] = compile_agg_specs(component.rules, program)
        self.specs_by_collecting: dict[str, list[AggSpec]] = {}
        for spec in self.specs.values():
            self.specs_by_collecting.setdefault(spec.collecting_pred, []).append(spec)
        self.plain_rules = [r for r in component.rules if not r.is_aggregation]
        #: pred -> [(rule, pinned literal, occurrence index)] for every body
        #: occurrence; the engine's ``_bind_kernels`` resolves its kernels.
        self.occurrences: dict[str, list[tuple[Rule, Literal, int]]] = {}
        for rule in self.plain_rules:
            for occ, literal in delta_occurrences(rule, include_negated=True):
                self.occurrences.setdefault(literal.pred, []).append(
                    (rule, literal, occ)
                )
        #: Rules with no relational body atom fire once, during solve().
        self.static_rules = [
            rule for rule in self.plain_rules if not rule.body_literals()
        ]
        #: Kernel tables (filled by the engine's ``_bind_kernels``, when
        #: :meth:`Solver._plan_component` says they are due).
        self.occ_kernels: dict[str, list[tuple]] = {}
        self.extractors: dict[str, object] = {}
        #: Whether the tables are planned against the solved sizes.
        self.sized = False

    def reset(self) -> None:
        """Drop every stored tuple and aggregate (before a fresh solve)."""
        self.relations = Relations(self._create)

    def new_relation(self, arity: int):
        """One empty relation of the engine's kind."""
        raise NotImplementedError

    def _create(self, pred: str):
        """The first touch of ``pred``: a fresh relation, its creation
        journaled so a guarded update that fails leaves no trace of it."""
        arity = self.arities.get(pred)
        if arity is None:
            raise SolverError(
                f"unknown predicate {pred!r} in component "
                f"{sorted(self.component.predicates)}"
            )
        relation = self.new_relation(arity)
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append((dict.pop, self.relations, pred, None))
        return relation

    def size(self, pred: str) -> int:
        """Stored tuples of ``pred``, read, never created: a predicate with
        no relation yet has none, and measuring must not force (and, under
        a guard, journal) an empty relation into existence."""
        return len(self.relations.get(pred, ()))

    @property
    def rel(self) -> Callable[[str], object]:
        """``pred -> component-local relation``, created on demand: what
        kernels take as ``lookup``.  Hot loops bind it to a local once."""
        return self.relations.__getitem__

    def adopt(self, entry: Mapping[str, object]) -> None:
        """Take over checkpoint-restored ``STATE`` values (the relation map
        pickled as a plain dict: rewrap it)."""
        for name, value in entry.items():
            setattr(self, name, value)
        self.relations = Relations(self._create, self.relations)


class Solver(ABC):
    """Base class: program compilation, fact management, exported views,
    and the solve/update pipeline the engines plug their strategies into."""

    #: Data state, declared once per engine: checkpoints persist exactly
    #: these attributes and UpdateGuard protects exactly these (per kind).
    #: ``_facts`` is journaled by :meth:`_normalize_changes` itself.
    STATE = {"_facts": PLAIN, "_exported": PLAIN, "_solved": PLAIN}

    #: The :class:`ComponentState` subclass of an engine that maintains its
    #: strata in place; None for engines that re-solve them.
    COMPONENT_STATE: type[ComponentState] | None = None

    #: Fixpoint guard: iterations per component before declaring divergence.
    MAX_ITERATIONS = 100_000

    def __init__(
        self,
        program: Program,
        metrics: SolverMetrics | None = None,
        config: SolverConfig | None = None,
    ):
        #: How this solver evaluates (docs/PERFORMANCE.md, "Configuration").
        #: Never reassigned: the hot loops read the attributes bound from it
        #: below, and whatever rebuilds this solver (guard fallback,
        #: checkpoint restore) hands the same object to the new one.
        self.config = config = config or SolverConfig.from_env()
        #: The caller's program as handed in, before normalization — the
        #: guard's graceful-degradation path rebuilds a reference solver
        #: from it (re-normalizing a normalized program is not idempotent).
        self.source_program = program
        self.program = program.copy()
        normalize(self.program)
        #: Observability collector — a disabled instance by default, so the
        #: hot path only pays when the caller opts in (docs/OBSERVABILITY.md).
        self.metrics = metrics if metrics is not None else SolverMetrics(enabled=False)
        self.metrics.engine = type(self).__name__
        # Shared pre-planning pass (repro.engines.prepare): static checks
        # with the validate() first-error contract and dead-rule pruning
        # (docs/STATIC_CHECKS.md).  Exported views are unaffected by it.
        prepared = prepare(self.program)
        self.components: list[Component] = prepared.components
        self.metrics.dead_rules_pruned += prepared.dead_rules_pruned
        self.metrics.check_seconds += prepared.check_seconds
        self.metrics.diagnostics_emitted += len(prepared.checked.diagnostics)
        self.arities = self.program.arities()
        self.edb = self.program.edb_predicates()
        self.idb = self.program.idb_predicates()
        #: Fingerprint of the (pruned) program that checkpoints compare.
        self._program_hash = program_hash(self.program)
        self._facts: dict[str, set[tuple]] = {}
        self._solved = False
        #: The timeless exported store every engine publishes into and every
        #: stratum reads its upstream from.
        self._exported = RelationStore(self.arities)
        #: One state object per component (empty without COMPONENT_STATE).
        self._states: list[ComponentState] = []
        if self.COMPONENT_STATE is not None:
            self._states = [
                self.COMPONENT_STATE(c, self.program, self.arities)
                for c in self.components
            ]
        #: What the most recent update() returned.
        self.last_stats: UpdateStats | None = None
        #: Shared compiled-kernel cache: one specialized enumeration pipeline
        #: per (rule, pinned occurrence, bound set, emit mode) — see
        #: repro.engines.compile.  ``config.interpret`` swaps in run_plan-
        #: backed kernels with identical signatures (the test oracle).
        self.kernels = KernelCache(self.program, self.metrics, config.interpret)
        #: Fixpoint watchdog budgets (docs/ROBUSTNESS.md): iteration
        #: ceilings, wall-clock deadline, ascending-chain counter.
        self.budget = Budget(
            config.max_iterations, config.deadline, config.max_chain
        )
        #: Run invariant self-checks after every solved component when set;
        #: violations raise InvariantViolationError with a diagnostic dump.
        self.self_check = config.self_check
        # Engine state starts out as an empty from-scratch solve would.
        self._reset()

    def fresh(self) -> "Solver":
        """An unsolved solver of this engine on the same program, metrics
        and configuration (what the guard's fallback re-solves with)."""
        return type(self)(self.source_program, metrics=self.metrics, config=self.config)

    def _store_metrics(self) -> SolverMetrics | None:
        """The metrics object relation stores should count probes into, or
        None when collection is off (keeps ``matching`` branch-free-ish)."""
        return self.metrics if self.metrics.active else None

    # -- fact management ---------------------------------------------------

    def add_facts(self, pred: str, rows: Iterable[tuple]) -> None:
        """Stage input facts before :meth:`solve` (set semantics)."""
        self._check_edb(pred)
        bucket = self._facts.setdefault(pred, set())
        for row in rows:
            self._check_row(pred, row)
            bucket.add(tuple(row))

    def facts(self, pred: str) -> frozenset[tuple]:
        return frozenset(self._facts.get(pred, ()))

    def replace_facts(self, facts: FactChanges) -> None:
        """Discard every staged fact and stage ``facts`` instead.

        The supported way to point an un-solved solver at a different EDB
        snapshot (test oracles, replay harnesses) — assigning ``_facts``
        directly would bypass the arity checks."""
        self._facts = {}
        for pred, rows in facts.items():
            self.add_facts(pred, rows)

    def _fact_items(self) -> list[tuple[str, set[tuple]]]:
        """Staged fact relations worth materializing.  An *empty* bucket for
        a predicate no rule mentions has no registered arity and no
        observable effect, so it is skipped rather than tripping the strict
        relation stores."""
        return [
            (pred, rows)
            for pred, rows in self._facts.items()
            if rows or pred in self.arities
        ]

    def _check_edb(self, pred: str) -> None:
        if pred in self.idb:
            raise SolverError(f"{pred} is derived; only input relations take facts")

    def _check_row(self, pred: str, row: tuple) -> None:
        expected = self.arities.get(pred)
        if expected is None:
            # A fact relation no rule mentions: the first row fixes its
            # arity, so later rows — and the relation stores, which treat an
            # unknown predicate as an error — see a consistent declaration.
            self.arities[pred] = len(row)
            undo = TRANSACTION.undo
            if undo is not None:
                undo.append((dict.pop, self.arities, pred, None))
        elif len(row) != expected:
            raise SolverError(
                f"{pred} expects arity {expected}, got {len(row)}: {row!r}"
            )

    def _normalize_changes(
        self, insertions: FactChanges | None, deletions: FactChanges | None
    ) -> tuple[dict[str, set[tuple]], dict[str, set[tuple]]]:
        """Validate an epoch's fact diff against the current EDB state and
        apply it to ``self._facts``.  Returns the effective (ins, del) sets —
        inserting a present fact or deleting an absent one is a no-op."""
        ins: dict[str, set[tuple]] = {}
        dels: dict[str, set[tuple]] = {}
        undo = TRANSACTION.undo
        for pred, rows in (deletions or {}).items():
            self._check_edb(pred)
            bucket = self._fact_bucket(pred, undo)
            for row in rows:
                row = tuple(row)
                self._check_row(pred, row)
                if row in bucket:
                    bucket.discard(row)
                    dels.setdefault(pred, set()).add(row)
                    if undo is not None:
                        undo.append((set.add, bucket, row))
        for pred, rows in (insertions or {}).items():
            self._check_edb(pred)
            bucket = self._fact_bucket(pred, undo)
            for row in rows:
                row = tuple(row)
                self._check_row(pred, row)
                if row not in bucket:
                    bucket.add(row)
                    ins.setdefault(pred, set()).add(row)
                    if undo is not None:
                        undo.append((set.discard, bucket, row))
        return ins, dels

    def _fact_bucket(self, pred: str, undo: list | None) -> set[tuple]:
        """``self._facts`` bucket for ``pred``, journaling creation so a
        rolled-back update does not leave phantom empty buckets behind."""
        bucket = self._facts.get(pred)
        if bucket is None:
            bucket = self._facts[pred] = set()
            if undo is not None:
                undo.append((dict.pop, self._facts, pred, None))
        return bucket

    # -- the pipeline --------------------------------------------------------

    def solve(self) -> None:
        """Run the initial from-scratch analysis over the staged facts."""
        active = self.metrics.active
        started = time.perf_counter() if active else 0.0
        self.budget.begin()
        self._exported = RelationStore(self.arities, metrics=self._store_metrics())
        self._reset()
        for pred, rows in self._fact_items():
            relation = self._exported.get(pred)
            for row in rows:
                relation.add(row)
        for index in range(len(self.components)):
            self._solve_stratum(index)
            self._run_self_check(index)
        self._solved = True
        if active:
            self.metrics.solve_seconds += time.perf_counter() - started
        self._epoch_metrics(update=False)

    def update(
        self,
        insertions: FactChanges | None = None,
        deletions: FactChanges | None = None,
    ) -> UpdateStats:
        """Process one epoch of input changes; returns the exported diff.

        ``inserted``/``deleted`` are exactly the set difference of
        :meth:`relations` before and after, exported EDB predicates
        included, whichever engine ran the epoch.
        """
        self._require_solved()
        active = self.metrics.active
        started = time.perf_counter() if active else 0.0
        self.budget.begin()
        ins, dels = self._normalize_changes(insertions, deletions)
        #: pred -> (added, removed) so far this epoch: the EDB diff, then
        #: every visited stratum's exported diff — what downstream strata
        #: seed from and what is published at the end.  Entries are made
        #: for changed rows and a fold only moves rows between sides, so
        #: every key here names a non-empty entry.
        pending: StratumDiff = {}
        for pred, rows in ins.items():
            pending.setdefault(pred, (set(), set()))[0].update(rows)
            relation = self._exported.get(pred)
            for row in rows:
                relation.add(row)
        for pred, rows in dels.items():
            pending.setdefault(pred, (set(), set()))[1].update(rows)
            relation = self._exported.get(pred)
            for row in rows:
                relation.discard(row)

        stats = UpdateStats()
        for index, component in enumerate(self.components):
            if component.upstream.isdisjoint(pending):
                # A stratum is a function of its upstream relations and its
                # body-less heads: with no input changed, its retained
                # fixpoint is what a full solve would recompute.
                self.metrics.strata_skipped += 1
                continue
            diff, work = self._update_stratum(index, pending)
            self._run_self_check(index)
            stats.work += work
            for pred, (added, removed) in diff.items():
                bucket = pending.setdefault(pred, (set(), set()))
                for row in added:
                    bucket[1].discard(row)
                    bucket[0].add(row)
                for row in removed:
                    bucket[0].discard(row)
                    bucket[1].add(row)

        exports = self.program.exported_predicates()
        for pred, (added, removed) in pending.items():
            if pred not in exports:
                continue
            if added:
                stats.inserted[pred] = set(added)
            if removed:
                stats.deleted[pred] = set(removed)
        self.last_stats = stats
        if active:
            self.metrics.update_seconds += time.perf_counter() - started
        self._epoch_metrics(update=True)
        return stats

    # -- what an engine supplies ---------------------------------------------

    def _reset(self) -> None:
        """Forget every derived result (start of a from-scratch solve)."""
        for state in self._states:
            state.metrics = self._store_metrics()
            state.reset()

    @abstractmethod
    def _solve_stratum(self, index: int) -> None:
        """Compute component ``index`` from scratch against the current
        upstream exported state (the engine's own state for it is empty)
        and publish its exported view into ``self._exported``."""

    @abstractmethod
    def _update_stratum(
        self, index: int, pending: StratumDiff
    ) -> tuple[StratumDiff, int]:
        """Bring component ``index`` up to date given the epoch's upstream
        diff so far (at least one relation it reads changed) and publish
        into ``self._exported``; returns the component's exported diff and
        a work count."""

    def _epoch_metrics(self, update: bool) -> None:
        """Engine-specific gauges after a solve or update epoch."""

    def _static_heads(self, state: ComponentState) -> Iterator[tuple[str, tuple]]:
        """``(pred, row)`` heads of the component's body-less rules — part
        of every from-scratch seed."""
        for rule in state.static_rules:
            pred = rule.head.pred
            for head_row in self.kernels.kernel(rule).fn(state.rel):
                yield pred, head_row

    def _plan_component(self, state: ComponentState, update: bool) -> None:
        """Bind ``state``'s kernel tables through the engine's
        ``_bind_kernels(state, oracle)`` by the planning rule
        (docs/PERFORMANCE.md, "When a kernel is planned").

        At solve they come from the greedy plans: nothing is solved yet to
        size them by.  At the first update visit after a solve or a
        checkpoint restore they are bound once more, by cost against the
        solved sizes, and kept from then on.
        """
        if not update:
            state.sized = False
            self._bind_kernels(state, no_sizes)
        elif not state.sized:
            self._bind_kernels(state, state.size)
            state.sized = True

    # -- exported views ------------------------------------------------------

    def relation(self, pred: str) -> frozenset[tuple]:
        """The exported (pruned, timeless) content of a predicate."""
        self._require_solved()
        return frozenset(self._exported.get(pred).tuples)

    def relations(self) -> dict[str, frozenset[tuple]]:
        """All exported predicates."""
        return {
            pred: self.relation(pred) for pred in self.program.exported_predicates()
        }

    def state_size(self) -> int:
        """Engine-specific count of stored entries, for memory comparisons."""
        return self._exported.state_size() + sum(
            state.state_size() for state in self._states
        )

    # -- robustness hooks ----------------------------------------------------

    def _poll_budget(self, context: str) -> None:
        """Wall-clock deadline check; called once per outer fixpoint step."""
        budget = self.budget
        if budget.deadline is None:
            return
        try:
            budget.poll(context)
        except BudgetExceededError:
            self.metrics.watchdog_trips += 1
            raise

    def _chain_advance(self, pred: str, key: tuple) -> None:
        """Tick the strictly-ascending-chain counter for one aggregation
        group; trips BudgetExceededError on a non-Noetherian climb."""
        try:
            self.budget.chain_advance(pred, key)
        except BudgetExceededError:
            self.metrics.watchdog_trips += 1
            raise

    def _budget_exceeded(self, message: str) -> BudgetExceededError:
        """Build the iteration-ceiling error, counting the trip."""
        self.metrics.watchdog_trips += 1
        return BudgetExceededError(message)

    def _run_self_check(self, index: int) -> None:
        """Validate engine invariants for component ``index`` if self-check
        mode is on; the time spent is metered separately so profiles show
        what the mode costs."""
        if not self.self_check:
            return
        from ..robustness.selfcheck import check_component

        t0 = time.perf_counter()
        try:
            check_component(self, index)
        finally:
            self.metrics.selfcheck_seconds += time.perf_counter() - t0

    # -- shared helpers ------------------------------------------------------

    def _require_solved(self) -> None:
        if not self._solved:
            raise SolverError("call solve() before querying or updating")

    def _aggregation_rule(self, pred: str):
        """The unique aggregation rule defining ``pred``, or None."""
        for rule in self.program.rules:
            if rule.head.pred == pred and rule.is_aggregation:
                return rule
        return None

    def _exported_diff(
        self,
        before: Mapping[str, frozenset[tuple]],
        after: Mapping[str, frozenset[tuple]],
    ) -> UpdateStats:
        stats = UpdateStats()
        for pred in set(before) | set(after):
            old = before.get(pred, frozenset())
            new = after.get(pred, frozenset())
            added = new - old
            removed = old - new
            if added:
                stats.inserted[pred] = added
            if removed:
                stats.deleted[pred] = removed
        return stats


__all__ = [
    "ASSIGNED",
    "ComponentState",
    "FactChanges",
    "PLAIN",
    "Relations",
    "Solver",
    "SolverError",
    "StratumDiff",
    "UpdateStats",
    "ValidationError",
    "declared_state",
]
