"""Solver observability: counters, timers, and pluggable trace hooks.

The paper's evaluation (Sections 3 and 7) is about *where* an engine spends
work — per-iteration delta sizes, compensation effort, aggregation
recomputation — not just final wall-clock numbers.  :class:`SolverMetrics`
is the shared substrate all four engines report into, and
:class:`TraceSink` is the hook API for callers that want a live feed of
solver events (progress bars, structured logs, debuggers).

Cost model
----------

A solver always owns a ``SolverMetrics`` instance, but a *disabled* one
(the default): engines consult :attr:`SolverMetrics.active` once per
stratum/epoch and skip every timer, dict update, and sink call when it is
false, so the hot path pays at most a handful of integer increments.
Enabled-mode collection adds per-rule ``perf_counter`` calls and per-event
sink dispatch; that is the profiling price, paid only on request.

Delta-size convention
---------------------

``StratumStats.delta_sizes`` records, per fixpoint round (or compensation
batch), the number of **new derivations entering the frontier** in that
round.  The list is bounded: once it reaches
:data:`StratumStats.DELTA_WINDOW` entries, the oldest half is folded into
``delta_rounds_folded`` / ``delta_tuples_folded`` so a long-lived profiled
session does not accrete one list entry per epoch forever.  Under this
convention ``sum(delta_sizes) + delta_tuples_folded == tuples_derived``
holds for every engine by construction — the metamorphic tests rely on it
(with an unfolded window the folded terms are zero and the historical
``sum(delta_sizes) == tuples_derived`` identity is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


class TraceSink:
    """No-op base class for solver trace hooks.

    Subclass and override the events you care about; every method defaults
    to doing nothing, so sinks stay forward-compatible as events grow.
    Engines only dispatch events while :attr:`SolverMetrics.active` is true,
    which is automatic as soon as a non-default sink is installed.
    """

    def on_stratum_start(self, index: int, predicates: tuple[str, ...]) -> None:
        """A stratum (dependency component) begins evaluation."""

    def on_stratum_end(self, index: int, seconds: float) -> None:
        """The stratum settled after ``seconds`` of wall time."""

    def on_rule_fired(
        self, rule: str, derived: int, deduplicated: int, seconds: float
    ) -> None:
        """One rule enumeration pass finished: ``derived`` new tuples,
        ``deduplicated`` already-present ones."""

    def on_delta(self, index: int, round_no: int, size: int) -> None:
        """A fixpoint round of stratum ``index`` produced ``size`` new
        derivations."""

    def on_compensation(
        self, pred: str, row: tuple, timestamp: int, delta: int
    ) -> None:
        """Laddder applied a support-count delta at an iteration timestamp."""


#: The shared do-nothing sink; identity-compared to detect custom sinks.
NULL_SINK = TraceSink()


@dataclass
class RuleStats:
    """Accumulated cost of one rule across all its enumeration passes."""

    label: str
    fired: int = 0  #: satisfying substitutions enumerated
    derived: int = 0  #: new head tuples
    deduplicated: int = 0  #: head tuples that already existed
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "fired": self.fired,
            "derived": self.derived,
            "deduplicated": self.deduplicated,
            "seconds": self.seconds,
        }


@dataclass
class StratumStats:
    """Accumulated cost of one stratum across solve() and every epoch."""

    #: Bound on the retained per-round history (see module docstring).
    DELTA_WINDOW = 512

    index: int
    predicates: tuple[str, ...]
    seconds: float = 0.0
    rounds: int = 0
    #: New derivations entering the frontier, one entry per round/batch
    #: (most recent ``DELTA_WINDOW`` rounds; older rounds are folded).
    delta_sizes: list[int] = field(default_factory=list)
    #: Rounds/derivations folded out of ``delta_sizes`` when it hit the cap.
    delta_rounds_folded: int = 0
    delta_tuples_folded: int = 0
    #: Running maximum over *all* rounds, folded or retained.
    delta_max: int = 0
    tuples_derived: int = 0
    tuples_deduplicated: int = 0

    def fold_oldest(self) -> None:
        """Fold the oldest half of ``delta_sizes`` into the summary counters
        so the retained window stays bounded in long-lived sessions."""
        keep = len(self.delta_sizes) // 2
        folded = self.delta_sizes[: len(self.delta_sizes) - keep]
        self.delta_sizes[:] = self.delta_sizes[len(folded):]
        self.delta_rounds_folded += len(folded)
        self.delta_tuples_folded += sum(folded)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "predicates": list(self.predicates),
            "seconds": self.seconds,
            "rounds": self.rounds,
            "delta_sizes": list(self.delta_sizes),
            "delta_rounds_folded": self.delta_rounds_folded,
            "delta_tuples_folded": self.delta_tuples_folded,
            "delta_max": self.delta_max,
            "tuples_derived": self.tuples_derived,
            "tuples_deduplicated": self.tuples_deduplicated,
        }


class SolverMetrics:
    """Counters and timers for one solver instance.

    Construct with ``enabled=True`` (or install a custom sink) and pass to
    any engine's constructor; read the totals directly, or export with
    :meth:`to_dict` / render with :func:`repro.metrics.format_profile`.
    """

    __slots__ = (
        "enabled",
        "sink",
        "engine",
        "join_probes",
        "join_probe_rows",
        "batch_rows_emitted",
        "index_builds",
        "rules_fired",
        "tuples_derived",
        "tuples_deduplicated",
        "tuples_retracted",
        "solve_seconds",
        "update_seconds",
        "epochs",
        "support_updates",
        "max_queue_depth",
        "timeline_entries",
        "timelines_compacted",
        "rules_compiled",
        "compile_seconds",
        "plan_cache_hits",
        "plan_cache_misses",
        "replans_triggered",
        "check_seconds",
        "diagnostics_emitted",
        "dead_rules_pruned",
        "impact_seconds",
        "strata_skipped",
        "rollbacks",
        "fallback_resolves",
        "watchdog_trips",
        "selfcheck_seconds",
        "updates_enqueued",
        "updates_coalesced",
        "batches_applied",
        "batch_apply_seconds",
        "queries_served",
        "query_seconds",
        "snapshots_published",
        "renders",
        "max_pending",
        "provenance_explains",
        "provenance_whynots",
        "provenance_seconds",
        "strata",
        "rules",
    )

    def __init__(self, enabled: bool = True, sink: TraceSink | None = None):
        self.enabled = enabled
        self.sink = sink if sink is not None else NULL_SINK
        self.engine = ""
        self.reset()

    @property
    def active(self) -> bool:
        """Should engines spend effort collecting?  True when counters are
        enabled or a custom sink wants events."""
        return self.enabled or self.sink is not NULL_SINK

    def reset(self) -> None:
        """Zero every counter (keeps ``enabled``/``sink``/``engine``)."""
        self.join_probes = 0
        self.join_probe_rows = 0
        self.index_builds = 0
        # ``join_probe_rows`` and ``batch_rows_emitted`` follow the
        # join-probe convention and only count while active.
        self.batch_rows_emitted = 0
        self.rules_fired = 0
        self.tuples_derived = 0
        self.tuples_deduplicated = 0
        self.tuples_retracted = 0
        self.solve_seconds = 0.0
        self.update_seconds = 0.0
        # Laddder-specific gauges (stay zero for the other engines).
        self.epochs = 0
        self.support_updates = 0
        self.max_queue_depth = 0
        self.timeline_entries = 0
        self.timelines_compacted = 0
        # Rule-compilation counters (see repro.engines.compile).  Compile
        # events are rare — once per (rule, pinned, bound-set) — so these are
        # recorded even while disabled, like the relation probe counters.
        self.rules_compiled = 0
        self.compile_seconds = 0.0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.replans_triggered = 0
        # Static-checker counters (see repro.datalog.check /
        # docs/STATIC_CHECKS.md).  Like the compile counters these record
        # once per solver construction, so they are kept even while disabled.
        self.check_seconds = 0.0
        self.diagnostics_emitted = 0
        self.dead_rules_pruned = 0
        # Strata an update epoch skipped because nothing they read changed
        # (docs/PERFORMANCE.md): a per-epoch event, rare enough to record
        # even while disabled, like the check counters.  ``impact_seconds``
        # is always 0; it stays only for readers of the JSON export.
        self.impact_seconds = 0.0
        self.strata_skipped = 0
        # Robustness counters (see repro.robustness / docs/ROBUSTNESS.md).
        # Guard/watchdog events are rare and worth keeping even while
        # disabled: a rollback you cannot see in a profile is a rollback
        # you will not investigate.
        self.rollbacks = 0
        self.fallback_resolves = 0
        self.watchdog_trips = 0
        self.selfcheck_seconds = 0.0
        # Service-layer counters (see repro.service / docs/SERVICE.md).
        # Sessions always record these — enqueue/flush events are orders of
        # magnitude rarer than joins, and a session without queue statistics
        # cannot be capacity-planned.
        self.updates_enqueued = 0
        self.updates_coalesced = 0
        self.batches_applied = 0
        self.batch_apply_seconds = 0.0
        self.queries_served = 0
        self.query_seconds = 0.0
        self.snapshots_published = 0
        #: Ordered views built by published snapshots (one per version and
        #: predicate that was read); reads / renders is the reuse ratio.
        self.renders = 0
        self.max_pending = 0
        # Provenance counters (see repro.provenance / docs/PROVENANCE.md):
        # explain/whynot reconstructions are interactive-rate events.
        self.provenance_explains = 0
        self.provenance_whynots = 0
        self.provenance_seconds = 0.0
        self.strata: dict[int, StratumStats] = {}
        self.rules: dict[str, RuleStats] = {}

    # -- recording API (engines call these only while ``active``) ----------

    def stratum(self, index: int, predicates: Iterable[str]) -> StratumStats:
        """Get-or-create the accumulator for stratum ``index`` and emit
        ``on_stratum_start``."""
        stats = self.strata.get(index)
        if stats is None:
            stats = self.strata[index] = StratumStats(
                index=index, predicates=tuple(sorted(predicates))
            )
        self.sink.on_stratum_start(index, stats.predicates)
        return stats

    def stratum_end(self, stats: StratumStats, seconds: float) -> None:
        stats.seconds += seconds
        self.sink.on_stratum_end(stats.index, seconds)

    def rule_fired(
        self,
        label: str,
        derived: int,
        deduplicated: int,
        seconds: float,
        stratum: StratumStats | None = None,
        count: bool = True,
        fired: int | None = None,
    ) -> None:
        """Fold one rule enumeration pass into the per-rule table.

        ``count=False`` records per-rule stats only, without touching the
        global/stratum derivation totals — used by the incremental engines,
        whose physical inserts are counted at the worklist instead (a head
        tuple enumerated here may never be applied, or be applied later).
        ``fired`` overrides the substitution count when it differs from
        ``derived + deduplicated`` (again the incremental engines, where an
        enumeration pass emits corrections rather than head tuples).
        """
        stats = self.rules.get(label)
        if stats is None:
            stats = self.rules[label] = RuleStats(label=label)
        if fired is None:
            fired = derived + deduplicated
        stats.fired += fired
        stats.derived += derived
        stats.deduplicated += deduplicated
        stats.seconds += seconds
        self.rules_fired += fired
        if count:
            if stratum is not None:
                stratum.tuples_derived += derived
                stratum.tuples_deduplicated += deduplicated
            self.tuples_derived += derived
            self.tuples_deduplicated += deduplicated
        self.sink.on_rule_fired(label, derived, deduplicated, seconds)

    def derivations(
        self, stratum: StratumStats | None, derived: int, deduplicated: int = 0
    ) -> None:
        """Count derivations not attributable to a single rule (aggregation
        advances, seed copies, compensation deltas)."""
        if stratum is not None:
            stratum.tuples_derived += derived
            stratum.tuples_deduplicated += deduplicated
        self.tuples_derived += derived
        self.tuples_deduplicated += deduplicated

    def round_delta(self, stratum: StratumStats, size: int) -> None:
        """Record one fixpoint round's frontier size (bounded history)."""
        stratum.rounds += 1
        stratum.delta_sizes.append(size)
        if size > stratum.delta_max:
            stratum.delta_max = size
        if len(stratum.delta_sizes) >= StratumStats.DELTA_WINDOW:
            stratum.fold_oldest()
        self.sink.on_delta(stratum.index, stratum.rounds, size)

    def compensation(self, pred: str, row: tuple, timestamp: int, delta: int) -> None:
        """Record one applied support-count delta (Laddder)."""
        self.support_updates += 1
        self.sink.on_compensation(pred, row, timestamp, delta)

    def queue_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def pending_depth(self, depth: int) -> None:
        """Track the high-water mark of a service session's update queue."""
        if depth > self.max_pending:
            self.max_pending = depth

    @property
    def coalesce_ratio(self) -> float:
        """Fraction of enqueued update operations absorbed by coalescing."""
        if not self.updates_enqueued:
            return 0.0
        return self.updates_coalesced / self.updates_enqueued

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict:
        """The stable JSON schema (documented in docs/OBSERVABILITY.md)."""
        return {
            "engine": self.engine,
            "totals": {
                "join_probes": self.join_probes,
                "join_probe_rows": self.join_probe_rows,
                "index_builds": self.index_builds,
                "rules_fired": self.rules_fired,
                "tuples_derived": self.tuples_derived,
                "tuples_deduplicated": self.tuples_deduplicated,
                "tuples_retracted": self.tuples_retracted,
                "solve_seconds": self.solve_seconds,
                "update_seconds": self.update_seconds,
            },
            "laddder": {
                "epochs": self.epochs,
                "support_updates": self.support_updates,
                "max_queue_depth": self.max_queue_depth,
                "timeline_entries": self.timeline_entries,
                "timelines_compacted": self.timelines_compacted,
            },
            "storage": {
                "batch_rows_emitted": self.batch_rows_emitted,
            },
            "compile": {
                "rules_compiled": self.rules_compiled,
                "compile_seconds": self.compile_seconds,
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
                "replans_triggered": self.replans_triggered,
            },
            "check": {
                "check_seconds": self.check_seconds,
                "diagnostics_emitted": self.diagnostics_emitted,
                "dead_rules_pruned": self.dead_rules_pruned,
            },
            "impact": {
                "impact_seconds": self.impact_seconds,
                "strata_skipped": self.strata_skipped,
            },
            "robustness": {
                "rollbacks": self.rollbacks,
                "fallback_resolves": self.fallback_resolves,
                "watchdog_trips": self.watchdog_trips,
                "selfcheck_seconds": self.selfcheck_seconds,
            },
            "service": {
                "updates_enqueued": self.updates_enqueued,
                "updates_coalesced": self.updates_coalesced,
                "coalesce_ratio": self.coalesce_ratio,
                "batches_applied": self.batches_applied,
                "batch_apply_seconds": self.batch_apply_seconds,
                "queries_served": self.queries_served,
                "query_seconds": self.query_seconds,
                "snapshots_published": self.snapshots_published,
                "renders": self.renders,
                "max_pending": self.max_pending,
            },
            "provenance": {
                "provenance_explains": self.provenance_explains,
                "provenance_whynots": self.provenance_whynots,
                "provenance_seconds": self.provenance_seconds,
            },
            "strata": [
                self.strata[i].to_dict() for i in sorted(self.strata)
            ],
            "rules": {
                label: stats.to_dict()
                for label, stats in sorted(self.rules.items())
            },
        }
