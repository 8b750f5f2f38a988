"""Pending-update queue with per-key last-write-wins coalescing.

An interactive client streams many small fact edits — often touching the
same tuple repeatedly (type a literal, overtype it, delete the line).
Applying each edit as its own solver epoch pays the per-update fixed cost
every time; applying them as one batch pays it once.

:class:`CoalescingQueue` keeps at most one pending operation per
``(predicate, row)`` key: a later insert or delete of the same key simply
overwrites the earlier one (**last write wins**).  This is sound because a
solver epoch is a *set* diff against the current EDB state — inserting an
already-present fact or deleting an absent one is a no-op — so only the
final operation per key determines the post-batch fact set.  The
batch-equivalence property tests (tests/property/test_batch_equivalence.py)
pin this down across all four engines.

When the owner supplies a ``membership`` oracle (the session answers from
the solver's staged EDB facts while no batch is in flight), edits that
cancel out are dropped at :meth:`~CoalescingQueue.put` time: an insert of a
present row or a delete of an absent one is a no-op against the EDB, so the
key contributes nothing to the next batch and any pending operation on it
is cancelled outright (insert-then-delete of an absent row, delete-then-
insert of a present one).  Without an oracle answer — no oracle installed,
a batch mid-apply, or a non-EDB predicate — the queue falls back to plain
last-write-wins and the solver's own set-diff normalization absorbs the
no-op at apply time instead, at the cost of an avoidable epoch.

Flush policy: a batch is **ready** once it holds ``flush_size`` distinct
keys, or once its oldest pending operation has waited ``flush_latency``
seconds.  The queue itself is passive and unsynchronized — the owning
:class:`~repro.service.session.Session` serializes access and runs the
actual flush loop on its worker thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class UpdateBatch:
    """One drained, coalesced batch ready for a single guarded epoch."""

    insertions: dict[str, set[tuple]] = field(default_factory=dict)
    deletions: dict[str, set[tuple]] = field(default_factory=dict)
    #: Coalesced key count (what the epoch will see).
    size: int = 0
    #: Raw operations folded into this batch (>= size).
    enqueued: int = 0
    #: Generation stamp: every put() up to this one is covered by the batch.
    generation: int = 0

    @property
    def empty(self) -> bool:
        return self.size == 0

    @property
    def touched(self) -> list[str]:
        """The EDB predicates this batch edits (reported in each flush
        outcome)."""
        return sorted(set(self.insertions) | set(self.deletions))


class CoalescingQueue:
    """Pending fact edits, one operation per ``(pred, row)`` key.

    Not thread-safe: the owning session holds its condition lock around
    every call.
    """

    def __init__(
        self,
        flush_size: int = 64,
        flush_latency: float = 0.05,
        membership: Callable[[str, tuple], bool | None] | None = None,
    ):
        if flush_size < 1:
            raise ValueError("flush_size must be >= 1")
        if flush_latency < 0:
            raise ValueError("flush_latency must be >= 0")
        self.flush_size = flush_size
        self.flush_latency = flush_latency
        #: EDB membership oracle: True/False when the owner can answer for
        #: ``(pred, row)`` right now, None to fall back to last-write-wins.
        self.membership = membership
        #: key -> True for insert, False for delete (last write wins).
        self._pending: dict[tuple[str, tuple], bool] = {}
        #: key -> raw operations folded into that key so far.
        self._key_ops: dict[tuple[str, tuple], int] = {}
        #: perf_counter stamp of the oldest operation still pending.
        self._oldest: float | None = None
        #: Total put() operations accepted (the flush generation clock).
        self.generation = 0
        #: Raw operations folded into the current pending set.
        self._enqueued_pending = 0
        #: Lifetime counters (sessions mirror these into SolverMetrics).
        self.total_ops = 0
        self.total_coalesced = 0

    # -- producing ---------------------------------------------------------

    def put(
        self,
        insertions: dict[str, list] | None = None,
        deletions: dict[str, list] | None = None,
    ) -> tuple[int, int]:
        """Fold one update request in; returns ``(ops, coalesced)``.

        ``coalesced`` counts operations the batch apply will never see:
        ones that landed on an already-pending key, no-ops against the EDB
        dropped via the ``membership`` oracle, and pending operations those
        no-ops cancelled outright.
        """
        ops = 0
        coalesced = 0
        oracle = self.membership
        now = time.perf_counter()
        for mapping, op in ((deletions, False), (insertions, True)):
            for pred, rows in (mapping or {}).items():
                for row in rows:
                    key = (pred, tuple(row))
                    ops += 1
                    present = None if oracle is None else oracle(pred, key[1])
                    if present is op:
                        # Insert of a present row / delete of an absent one:
                        # a no-op against the EDB, so the key can contribute
                        # nothing — drop it, taking any pending operation on
                        # it (an insert-then-delete pair, a dead duplicate)
                        # along.  Only the key's *first* raw op was not
                        # already counted as coalesced.
                        coalesced += 1
                        if key in self._pending:
                            coalesced += 1
                            del self._pending[key]
                            self._enqueued_pending -= self._key_ops.pop(key)
                            if not self._pending:
                                self._oldest = None
                        continue
                    if key in self._pending:
                        coalesced += 1
                        self._key_ops[key] += 1
                    else:
                        self._key_ops[key] = 1
                        if self._oldest is None:
                            self._oldest = now
                    self._pending[key] = op
                    self._enqueued_pending += 1
        if ops:
            self.generation += 1
            self.total_ops += ops
            self.total_coalesced += coalesced
        return ops, coalesced

    # -- flushing ----------------------------------------------------------

    def __len__(self) -> int:
        """Distinct pending keys (the size of the next batch)."""
        return len(self._pending)

    @property
    def empty(self) -> bool:
        return not self._pending

    def ready(self, now: float | None = None) -> bool:
        """Should the next batch flush now (size or latency policy)?"""
        if not self._pending:
            return False
        if len(self._pending) >= self.flush_size:
            return True
        if now is None:
            now = time.perf_counter()
        return now - self._oldest >= self.flush_latency

    def seconds_until_ready(self, now: float | None = None) -> float | None:
        """Time until the latency deadline fires, or None when idle/ready."""
        if not self._pending:
            return None
        if now is None:
            now = time.perf_counter()
        remaining = self.flush_latency - (now - self._oldest)
        return max(0.0, remaining)

    def drain(self) -> UpdateBatch:
        """Pop everything pending as one coalesced :class:`UpdateBatch`."""
        batch = UpdateBatch(
            size=len(self._pending),
            enqueued=self._enqueued_pending,
            generation=self.generation,
        )
        for (pred, row), is_insert in self._pending.items():
            target = batch.insertions if is_insert else batch.deletions
            target.setdefault(pred, set()).add(row)
        self._pending.clear()
        self._key_ops.clear()
        self._enqueued_pending = 0
        self._oldest = None
        return batch
