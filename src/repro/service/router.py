"""Session routing state: the consistent-hash ring and per-session journals.

The cluster front end (:mod:`repro.service.cluster`) owns worker
*processes*; this module owns the pure bookkeeping that decides **where a
session lives** and **what must be replayed** when its worker dies:

* :class:`HashRing` — consistent hashing of session ids onto named worker
  slots.  Hashes are ``md5`` (stable across processes and
  ``PYTHONHASHSEED``), with virtual nodes so a handful of slots still
  spreads sessions evenly.  Slot membership is fixed for the life of the
  cluster — a crashed worker is *replaced in place*, so the mapping never
  moves a live session between slots.
* :class:`SessionRecord` — one routed session's front-end state: the
  (augmented) ``open`` request needed to rebuild it, a monotonically
  increasing per-session op sequence, and a bounded journal of the
  mutating ops the session has not yet reported durable (``durable_seq``
  on its responses).  Recovery replays what the journal holds above the
  recovered session's ``durable_seq``, in sequence order, so the rebuilt
  worker state is bit-equal to an uninterrupted run (replaying a covered
  op is harmless: ops are absolute set-edits).  A full journal *refuses*
  the next op; it never drops one.
* :class:`Router` — the session table plus the ring, shared by every
  front-end connection thread.

Exactly-once visibility: every mutating op gets a ``seq`` before dispatch
and is journaled first, so a crash between dispatch and response cannot
lose it — recovery replays it and the waiting dispatcher resumes from the
replay outcome instead of re-sending.  Client-supplied request ids on
mutating ops are additionally deduplicated against a bounded window, so a
client that retries after a lost response observes its effect once.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from collections import OrderedDict, deque

from ..datalog.errors import OverloadedError

__all__ = ["HashRing", "Router", "SessionRecord"]


def _hash(key: str) -> int:
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent hashing of string keys onto a fixed set of slot names."""

    def __init__(self, slots: list[str], vnodes: int = 64):
        if not slots:
            raise ValueError("a hash ring needs at least one slot")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.slots = list(slots)
        self.vnodes = vnodes
        points = []
        for slot in slots:
            for vnode in range(vnodes):
                points.append((_hash(f"{slot}#{vnode}"), slot))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def lookup(self, key: str) -> str:
        """The slot owning ``key`` (deterministic across processes)."""
        index = bisect_right(self._points, _hash(key)) % len(self._points)
        return self._owners[index]


class SessionRecord:
    """Front-end bookkeeping for one routed session.

    Lock discipline: ``lock`` (reentrant) serializes mutating dispatch for
    the session — seq assignment, journaling, and the send happen under it
    so arrival order at the worker equals sequence order.  ``journal_lock``
    is a leaf lock guarding only the journal/outcome structures, so slot
    recovery (running on another thread, possibly while a dispatcher
    holding ``lock`` waits for it) can snapshot and annotate the journal
    without deadlocking.
    """

    def __init__(self, name: str, slot: str, journal_limit: int, dedup_limit: int):
        self.name = name
        self.slot = slot
        #: The augmented ``open`` request (sans id) that rebuilds this
        #: session on a fresh worker; None until the open succeeded.
        self.open_request: dict | None = None
        #: Last assigned per-session op sequence number (0 = none yet).
        self.seq = 0
        #: Serializes mutating dispatch (see class docstring).
        self.lock = threading.RLock()
        self.journal_lock = threading.Lock()
        self.journal_limit = journal_limit
        #: (seq, request line) of every mutating op not yet known durable,
        #: oldest first.
        self.journal: deque[tuple[int, str]] = deque()
        #: Highest seq covered by the most recent recovery replay, and the
        #: per-seq response lines that replay recorded for waiting dispatchers.
        self.replayed_through = 0
        self.outcomes: dict[int, str] = {}
        #: Client request id -> response, for exactly-once retry semantics.
        self.dedup_limit = dedup_limit
        self.dedup: OrderedDict[object, dict] = OrderedDict()
        #: Last failure recovering this session (None = recovered clean).
        self.last_recovery_error: str | None = None

    # -- journaling --------------------------------------------------------

    def journal_op(self, payload: str) -> int:
        """Give one mutating op the next ``seq`` and journal it; a full
        journal refuses it (dropping one could lose it for good)."""
        with self.journal_lock:
            if len(self.journal) >= self.journal_limit:
                raise OverloadedError(
                    f"session {self.name!r} has {len(self.journal)} updates "
                    f"not yet durable (limit {self.journal_limit}); "
                    "back off and resend"
                )
            self.seq += 1
            self.journal.append((self.seq, payload))
            return self.seq

    def prune_journal(self, durable_seq: int | None) -> int:
        """Drop the entries recovery can no longer need, those with
        ``seq <= durable_seq`` (None: the response named none); returns
        the count."""
        dropped = 0
        with self.journal_lock:
            while self.journal and self.journal[0][0] <= (durable_seq or 0):
                self.journal.popleft()
                dropped += 1
            # Outcomes are one-shot hand-offs to waiting dispatchers;
            # anything a dispatcher never collected ages out here.
            while len(self.outcomes) > self.journal_limit:
                del self.outcomes[min(self.outcomes)]
        return dropped

    def journal_snapshot(self) -> list[tuple[int, str]]:
        with self.journal_lock:
            return list(self.journal)

    # -- exactly-once dedup ------------------------------------------------

    def cached_response(self, request_id) -> dict | None:
        if request_id is None:
            return None
        with self.journal_lock:
            return self.dedup.get(request_id)

    def cache_response(self, request_id, response: dict) -> None:
        if request_id is None:
            return
        with self.journal_lock:
            self.dedup[request_id] = response
            while len(self.dedup) > self.dedup_limit:
                self.dedup.popitem(last=False)


class Router:
    """The cluster's session table: name -> record, name -> slot."""

    def __init__(
        self,
        slot_names: list[str],
        vnodes: int = 64,
        journal_limit: int = 1024,
        dedup_limit: int = 256,
    ):
        self.ring = HashRing(slot_names, vnodes=vnodes)
        self.journal_limit = journal_limit
        self.dedup_limit = dedup_limit
        self._records: dict[str, SessionRecord] = {}
        self._lock = threading.Lock()

    def slot_for(self, session: str) -> str:
        return self.ring.lookup(session)

    def record(self, session: str) -> SessionRecord:
        """Get-or-create the record for ``session`` (creation is cheap and
        idempotent; records for sessions that never open successfully are
        garbage-collected with :meth:`drop`)."""
        with self._lock:
            record = self._records.get(session)
            if record is None:
                record = SessionRecord(
                    session,
                    self.ring.lookup(session),
                    self.journal_limit,
                    self.dedup_limit,
                )
                self._records[session] = record
            return record

    def drop(self, session: str) -> None:
        with self._lock:
            self._records.pop(session, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(
                name
                for name, record in self._records.items()
                if record.open_request is not None
            )

    def sessions_on(self, slot: str) -> list[SessionRecord]:
        """Open sessions assigned to ``slot``, in name order (recovery
        rebuilds them deterministically)."""
        with self._lock:
            return sorted(
                (
                    record
                    for record in self._records.values()
                    if record.slot == slot and record.open_request is not None
                ),
                key=lambda record: record.name,
            )
