r"""Differential count timelines (Figure 5).

Laddder tracks, per tuple, at which fixpoint iteration (timestamp) each of
its derivations appeared.  The *differential count* timeline is the sparse
list of ``(timestamp, Δcount)`` entries; the cumulative count, cumulative
existence, and differential existence of Figure 5 are derived views.

Within one epoch's settled state all deltas are non-negative (the
inflationary invariant: once derived, a tuple exists at every later
iteration), so cumulative existence is a single step and
:meth:`Timeline.first` — the timestamp of first appearance — fully
characterizes it.  Negative entries appear only transiently inside an
epoch's compensation queue, never in a settled timeline.

Compaction (the long-haul soak fix, and its soundness boundary)
---------------------------------------------------------------

Settled existence being a single step means a settled timeline's entries
beyond the first carry no *exported* information — they record at which
later iterations additional derivations fired.  After an update epoch
settles the solver :meth:`compact`\ s touched timelines into the single
entry ``{first: total}``, and
:meth:`redirect_negative` re-pairs later ``-1`` corrections — whose
firing-time targets may name a timestamp whose ``+1`` was folded into an
earlier entry — by cancelling against the nearest positive entry at or
below the target.

Compaction is restricted to predicates that cannot support themselves
through a dependency cycle.  For recursive predicates the positions are
*load-bearing*: a tuple kept alive by a cycle carries its external
anchor at one timestamp and the cyclic echo strictly later (a derivation
fires after its body atoms), and retracting the anchor must *move* the
first-existence so the cascade re-fires and the cycle collapses.
Folding ``[(t_anchor, 1), (t_echo, 1)]`` into ``[(t_anchor, 2)]`` makes
the anchor's retraction absorb (count stays positive, first unchanged)
and the echo survives as a zombie — the continuous-edit soak surfaced
exactly this as stale ``Top`` valuations after a statement delete (see
``docs/SOAK.md``).  Acyclic predicates have no such echoes; every
support gets its own exact ``-1`` from partner enumeration, so folding
only changes interior positions that nothing reads.  Under per-SCC
components the restriction makes the fold a *backstop*: a foldable
predicate's body atoms are all upstream and timeless, so its supports
fire together at timestamp 1 and its timelines are born single-entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator

#: Timestamp meaning "never exists" in first/existence computations.
NEVER: float = float("inf")


class Timeline:
    """A sparse differential count timeline for one tuple."""

    __slots__ = ("_times", "_deltas")

    def __init__(self) -> None:
        self._times: list[int] = []
        self._deltas: list[int] = []

    def __bool__(self) -> bool:
        return bool(self._times)

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{t}:{d:+d}" for t, d in self.entries())
        return f"Timeline({inner})"

    def entries(self) -> Iterator[tuple[int, int]]:
        """The non-zero differential count entries, in timestamp order."""
        return zip(self._times, self._deltas)

    def add(self, timestamp: int, delta: int) -> None:
        """Merge ``delta`` into the entry at ``timestamp`` (dropping zeros)."""
        if delta == 0:
            return
        i = bisect_left(self._times, timestamp)
        if i < len(self._times) and self._times[i] == timestamp:
            merged = self._deltas[i] + delta
            if merged == 0:
                del self._times[i]
                del self._deltas[i]
            else:
                self._deltas[i] = merged
        else:
            self._times.insert(i, timestamp)
            self._deltas.insert(i, delta)

    def cumulative(self, timestamp: int) -> int:
        """Cumulative count at ``timestamp`` (Figure 5, top-left).

        Settled-and-compacted timelines are single-entry, so that case is a
        branch instead of a prefix sum; longer (transient or uncompacted)
        timelines sum the first ``i`` deltas without materializing a slice
        copy — probes are frequent.
        """
        times = self._times
        if len(times) == 1:
            return self._deltas[0] if times[0] <= timestamp else 0
        i = bisect_right(times, timestamp)
        return sum(islice(self._deltas, i))

    def total(self) -> int:
        """Cumulative count at infinity."""
        return sum(self._deltas)

    def first(self) -> float:
        """First timestamp with positive cumulative count, or ``NEVER``.

        In settled (all-non-negative) timelines this is simply the first
        entry; the prefix scan also handles transient mixed-sign states.
        """
        running = 0
        for t, d in zip(self._times, self._deltas):
            running += d
            if running > 0:
                return t
        return NEVER

    def exists_at(self, timestamp: int) -> bool:
        """Cumulative existence at ``timestamp`` (Figure 5, bottom-left)."""
        return self.cumulative(timestamp) > 0

    def existence_changes(self) -> list[tuple[int, int]]:
        """The differential existence timeline (Figure 5, bottom-right):
        ``(timestamp, ±1)`` at each toggle of cumulative existence."""
        changes = []
        running = 0
        exists = False
        for t, d in zip(self._times, self._deltas):
            running += d
            now = running > 0
            if now != exists:
                changes.append((t, 1 if now else -1))
                exists = now
        return changes

    def is_settled(self) -> bool:
        """True iff all deltas are non-negative (inflationary invariant)."""
        return all(d >= 0 for d in self._deltas)

    def redirect_negative(self, timestamp: int, delta: int) -> list[tuple[int, int]]:
        """Split a negative ``delta`` into placements that cancel against
        the nearest positive entries at or below ``timestamp``.

        After compaction a retraction's support may have been folded into
        an earlier entry than the firing time the correction targets; this
        walks downward consuming positive support so the cancellation still
        telescopes exactly.  On an uncompacted timeline the support sits at
        ``timestamp`` itself and the result is ``[(timestamp, delta)]``.
        Any residue with no positive support below falls through at
        ``timestamp``, preserving the transient mixed-sign behaviour.
        """
        if delta >= 0:
            raise ValueError("redirect_negative wants a negative delta")
        remaining = -delta
        placements: list[tuple[int, int]] = []
        times, deltas = self._times, self._deltas
        for j in range(bisect_right(times, timestamp) - 1, -1, -1):
            if remaining == 0:
                break
            if deltas[j] > 0:
                take = min(remaining, deltas[j])
                placements.append((times[j], -take))
                remaining -= take
        if remaining:
            placements.append((timestamp, -remaining))
        return placements

    def compact(self) -> int:
        """Merge a settled multi-entry timeline into ``{first: total}``.

        Only all-non-negative (settled) timelines are eligible — existence
        is then a single step at the first entry, so later entries only
        record support positions, which :meth:`redirect_negative` no longer
        needs at exact timestamps.  The *caller* must additionally ensure
        the tuple's predicate cannot support itself through a dependency
        cycle: folding a cyclic echo into its anchor masks the
        first-existence move that unwinds the cycle on retraction (module
        docstring).  Returns the number of entries removed (0 when nothing
        changed).
        """
        if len(self._times) < 2 or not self.is_settled():
            return 0
        removed = len(self._times) - 1
        total = sum(self._deltas)
        first = self._times[0]
        self._times[:] = [first]
        self._deltas[:] = [total]
        return removed

    def copy(self) -> "Timeline":
        clone = Timeline()
        clone._times = list(self._times)
        clone._deltas = list(self._deltas)
        return clone

    def state_size(self) -> int:
        return len(self._times)
