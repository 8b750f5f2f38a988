"""The sequential incremental aggregation architecture (Section 5, Figure 6).

Per aggregation group we keep, sparsely by iteration timestamp, a balanced
tree of the aggregands *inserted at that timestamp* (``A`` in Figure 6) and
the rolled-up running totals ``R_i`` (the aggregate of everything inserted
at or before ``t_i``).  An epoch update touches one tree, re-rolls totals
forward, and **stops early** as soon as a recomputed total equals the stored
one (``C`` in Figure 6) — the key to millisecond updates.

The inflationary output of the aggregation is the set of tuples
``(group, R_i)`` first appearing at iteration ``t_i + 1``;
:meth:`GroupState.output_runs` exposes the value → first-appearance map the
solver diffs to drive downstream compensation.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable

from ...robustness.guard import TRANSACTION
from .aggtree import AggTree


class GroupState:
    """Trees, totals, and output runs for one aggregation group.

    Under an open transaction, insert/remove journal their inverses.  Group
    state is a pure function of the per-timestamp aggregand multisets, so
    inverse replay restores trees *and* rolled-up totals.
    """

    __slots__ = ("_combine", "_times", "_trees", "_totals", "rollup_steps")

    def __init__(self, combine: Callable[[object, object], object]):
        self._combine = combine
        self._times: list[int] = []  # sorted timestamps with non-empty trees
        self._trees: dict[int, AggTree] = {}
        self._totals: dict[int, object] = {}  # rolled-up R_i per timestamp
        #: instrumentation: total roll-up combine steps (ablation benches).
        self.rollup_steps = 0

    def __bool__(self) -> bool:
        return bool(self._times)

    # -- pickling (checkpoints) -------------------------------------------
    #
    # ``_combine`` is a bound method of a registered aggregator and may not
    # travel through a checkpoint — the restorer rebinds it from the freshly
    # constructed solver's own registry (:func:`rebind`).

    def __getstate__(self):
        return {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
            if name != "_combine"
        }

    def __setstate__(self, state):
        self._combine = None
        for name, value in state.items():
            setattr(self, name, value)

    def rebind(self, combine: Callable[[object, object], object]) -> None:
        """Attach a live combine after unpickling (checkpoint restore)."""
        self._combine = combine
        for tree in self._trees.values():
            tree.rebind(combine)

    def insert(self, timestamp: int, value: object) -> None:
        """Add one aggregand appearing at ``timestamp`` and re-roll."""
        tree = self._trees.get(timestamp)
        if tree is None:
            tree = AggTree(self._combine)
            self._trees[timestamp] = tree
            insort(self._times, timestamp)
        tree.insert(value)
        self._roll_from(timestamp)
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append((GroupState.remove, self, timestamp, value))

    def remove(self, timestamp: int, value: object) -> None:
        """Remove one aggregand that appeared at ``timestamp`` and re-roll."""
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append((GroupState.insert, self, timestamp, value))
        tree = self._trees[timestamp]
        tree.remove(value)
        if not tree:
            del self._trees[timestamp]
            del self._totals[timestamp]
            i = bisect_left(self._times, timestamp)
            del self._times[i]
            # Roll from the successor of the removed timestamp, seeded by
            # the predecessor's (unchanged) total.
            if i < len(self._times):
                self._roll_from(self._times[i])
            return
        self._roll_from(timestamp)

    def _roll_from(self, timestamp: int) -> None:
        """Recompute totals at ``timestamp`` and forward, stopping early once
        a recomputed total matches the stored one (Figure 6 C)."""
        i = bisect_left(self._times, timestamp)
        if i == len(self._times) or self._times[i] != timestamp:
            raise AssertionError(f"roll from unknown timestamp {timestamp}")
        if i == 0:
            running = None
        else:
            running = self._totals[self._times[i - 1]]
        for j in range(i, len(self._times)):
            t = self._times[j]
            local = self._trees[t].aggregate()
            if running is None:
                new_total = local
            else:
                new_total = self._combine(running, local)
                self.rollup_steps += 1
            if j > i and self._totals.get(t) == new_total:
                return  # early stop: nothing changes from here on
            self._totals[t] = new_total
            running = new_total

    def totals(self) -> list[tuple[int, object]]:
        """``(t_i, R_i)`` pairs in timestamp order."""
        return [(t, self._totals[t]) for t in self._times]

    def final(self) -> object:
        """The pruned export for this group: the last (extremal) total."""
        if not self._times:
            raise LookupError("final() of empty group")
        return self._totals[self._times[-1]]

    def output_runs(self) -> dict[object, float]:
        """Inflationary output view: aggregate value -> first appearance.

        A value derived first at collecting-timestamp ``t_i`` appears in the
        aggregating relation at ``t_i + 1`` (Figure 4: PT at 8 -> PTlub
        at 9).  Totals only advance along the aggregation direction, so each
        value occupies one contiguous run; we keep its first timestamp.
        """
        runs: dict[object, float] = {}
        for t in self._times:
            value = self._totals[t]
            if value not in runs:
                runs[value] = t + 1
        return runs

    def state_size(self) -> int:
        return sum(len(tree) for tree in self._trees.values()) + len(self._times)

    def check_consistency(self) -> str | None:
        """Self-check: re-derive every rolled-up total from the trees with
        no early stop and compare against the stored ``R_i``.  Returns a
        description of the first mismatch, or None if consistent.

        This is the invariant the Figure 6 early stop relies on: a stored
        total must equal the fold of all aggregands at or before its
        timestamp.  A buggy combine (non-deterministic, mutating) or a
        missed re-roll shows up here instead of as a wrong export three
        strata later.
        """
        if set(self._totals) != set(self._times):
            return (
                f"totals keyed at {sorted(self._totals)} but time index is "
                f"{self._times}"
            )
        running = None
        for t in self._times:
            tree = self._trees.get(t)
            if tree is None or not tree:
                return f"timestamp {t} listed without a non-empty aggregand tree"
            local = tree.aggregate()
            running = local if running is None else self._combine(running, local)
            if self._totals[t] != running:
                return (
                    f"stored total at t={t} is {self._totals[t]!r} but "
                    f"re-derived fold gives {running!r}"
                )
        return None


class NaiveGroupState(GroupState):
    """Ablation variant: no trees, no early stop — refold every timestamp's
    aggregand list from scratch on each change.

    Used by the ablation benchmark to quantify what the Section 5
    architecture buys; functionally identical to :class:`GroupState`.
    """

    __slots__ = ("_values",)

    def __init__(self, combine):
        super().__init__(combine)
        self._values: dict[int, list[object]] = {}

    def insert(self, timestamp: int, value: object) -> None:
        bucket = self._values.setdefault(timestamp, [])
        bucket.append(value)
        if timestamp not in self._trees:
            self._trees[timestamp] = AggTree(self._combine)  # placeholder key
            insort(self._times, timestamp)
        self._refold()
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append((NaiveGroupState.remove, self, timestamp, value))

    def remove(self, timestamp: int, value: object) -> None:
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append((NaiveGroupState.insert, self, timestamp, value))
        bucket = self._values[timestamp]
        bucket.remove(value)
        if not bucket:
            del self._values[timestamp]
            del self._trees[timestamp]
            self._totals.pop(timestamp, None)
            i = bisect_left(self._times, timestamp)
            del self._times[i]
        self._refold()

    def _refold(self) -> None:
        running = None
        for t in self._times:
            for value in self._values[t]:
                if running is None:
                    running = value
                else:
                    running = self._combine(running, value)
                    self.rollup_steps += 1
            self._totals[t] = running

    def check_consistency(self) -> str | None:
        running = None
        for t in self._times:
            for value in self._values.get(t, ()):
                running = value if running is None else self._combine(running, value)
            if self._totals.get(t) != running:
                return (
                    f"stored total at t={t} is {self._totals.get(t)!r} but "
                    f"re-derived fold gives {running!r}"
                )
        return None
