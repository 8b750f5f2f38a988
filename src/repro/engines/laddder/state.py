"""Timestamped relation storage for Laddder components.

A :class:`TimedRelation` maps tuples to their differential count
:class:`~repro.engines.laddder.timeline.Timeline` and shares the lazy
column-index maintenance of :class:`repro.engines.relation.ColumnIndexed`,
so the shared grounding machinery (:func:`repro.engines.grounding.run_plan`)
works unchanged — a tuple participates in joins while its timeline is
non-empty.

Physical removal of emptied tuples is *deferred*: epoch compensation needs
a just-deleted tuple to stay findable while its disappearance is being
propagated (its old derivations must be enumerated to retract their
consequences).  The solver calls :meth:`cleanup` after each propagation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ...robustness.guard import TRANSACTION
from ..relation import ColumnIndexed
from .timeline import NEVER, Timeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ...metrics import SolverMetrics


class TimedRelation(ColumnIndexed):
    """Tuples with differential count timelines and lazy column indexes."""

    __slots__ = ("arity", "timelines", "_indexes", "metrics", "_scan_cache", "_first")

    def __init__(self, arity: int, metrics: "SolverMetrics | None" = None):
        self.arity = arity
        self.timelines: dict[tuple, Timeline] = {}
        self._indexes: dict[tuple[int, ...], dict] = {}
        self.metrics = metrics
        self._scan_cache: tuple | None = None
        #: tuple -> cached first-existence timestamp; maintained on every
        #: timeline mutation so :meth:`first` — the single hottest probe of
        #: epoch compensation — is one dict lookup instead of a prefix scan.
        self._first: dict[tuple, float] = {}

    # -- the IndexedRelation protocol used by run_plan ---------------------

    def __len__(self) -> int:
        return len(self.timelines)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.timelines)

    def __contains__(self, item: tuple) -> bool:
        return item in self.timelines

    def _items(self):
        return self.timelines

    # -- timeline maintenance ----------------------------------------------

    def add_delta(
        self, item: tuple, timestamp: int, delta: int, redirect: bool = False
    ) -> Timeline:
        """Merge a count delta; registers the tuple in indexes if new.

        With ``redirect`` (compaction mode), a negative delta cancels
        against the nearest positive support at or below ``timestamp``
        (:meth:`Timeline.redirect_negative`) instead of landing at the
        targeted timestamp unconditionally — compaction folds support
        positions downward, so that is where the matching ``+1`` now
        lives.  Each actual placement is journaled individually, keeping
        rollback replay exact.
        """
        timeline = self.timelines.get(item)
        if timeline is None:
            timeline = Timeline()
            self.timelines[item] = timeline
            self._register(item)
        if redirect and delta < 0 and timeline:
            placements = timeline.redirect_negative(timestamp, delta)
        else:
            placements = ((timestamp, delta),)
        undo = TRANSACTION.undo
        for at, d in placements:
            timeline.add(at, d)
            if undo is not None:
                undo.append((TimedRelation._undo_delta, self, item, at, -d))
        self._first[item] = timeline.first()
        return timeline

    def _undo_delta(self, item: tuple, timestamp: int, delta: int) -> None:
        """Journal replay target: cancel one recorded delta.

        Timeline content is exactly the running sum of every ``add_delta``
        ever applied, so replaying negated deltas in reverse reconstructs
        the pre-update timelines — including ones :meth:`cleanup` physically
        dropped mid-update.  The trailing cleanup matters: without it a
        delta-and-its-inverse pair would leave an *empty* timeline behind,
        and an empty-timeline dict entry wrongly satisfies membership
        probes in joins.
        """
        self.add_delta(item, timestamp, delta)
        self.cleanup(item)

    def compact(self, item: tuple) -> int:
        """Fold a settled multi-entry timeline into ``{first: total}``.

        The inverse is a verbatim restore of the pre-compaction entry
        lists — compaction is a representation change, not a content
        change, so snapshotting the two short lists is both exact and
        cheaper than journaling per-entry deltas.  Returns the number of
        entries removed (0 when the timeline was absent, single-entry, or
        not settled).
        """
        timeline = self.timelines.get(item)
        if timeline is None or len(timeline) < 2 or not timeline.is_settled():
            return 0
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append(
                (
                    TimedRelation._restore_timeline,
                    self,
                    item,
                    list(timeline._times),
                    list(timeline._deltas),
                )
            )
        return timeline.compact()

    def _restore_timeline(self, item: tuple, times: list, deltas: list) -> None:
        """Journal replay target: reinstate pre-compaction entry lists."""
        timeline = self.timelines.get(item)
        if timeline is None:
            timeline = Timeline()
            self.timelines[item] = timeline
            self._register(item)
        timeline._times[:] = times
        timeline._deltas[:] = deltas
        self._first[item] = timeline.first()

    def first(self, item: tuple) -> float:
        """First-existence timestamp of ``item``, or ``NEVER``."""
        return self._first.get(item, NEVER)

    def cleanup(self, item: tuple) -> None:
        """Physically drop ``item`` if its timeline became empty."""
        timeline = self.timelines.get(item)
        if timeline is None or timeline:
            return
        del self.timelines[item]
        del self._first[item]
        self._unregister(item)

    def present_tuples(self) -> set[tuple]:
        """Tuples that exist at the fixpoint (positive total count)."""
        return {item for item, tl in self.timelines.items() if tl.total() > 0}

    def timeline_entries(self) -> int:
        """Total differential-count entries across all timelines (gauge)."""
        return sum(len(tl) for tl in self.timelines.values())

    def state_size(self) -> int:
        return len(self.timelines) + self.timeline_entries() + self._postings()
