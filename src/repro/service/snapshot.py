"""Immutable versioned exported views: the read side of a session.

A batch apply mutates deep engine state over many strata; a query that
read the live solver mid-apply could observe a half-applied update (some
strata new, some old).  Sessions therefore never serve reads from the
solver.  After each successful batch they *publish* a :class:`Snapshot` —
an immutable copy of every exported view, stamped with a monotonically
increasing version — and queries read whichever snapshot is currently
published.  Publishing is a single attribute store, atomic under the GIL,
so readers see either the complete old state or the complete new state,
and keep being served while the worker thread applies the next batch.

A failed batch publishes nothing: the previous snapshot stays current
(tests/unit/service/test_session.py pins this with mid-batch fault
injection).

The digest is the one thing a version inherits.  It finalises an additive
state — the sum, modulo 2**256, of one hash per exported row — so a
version published from its parent and the batch's exported diff
(``UpdateStats.inserted/deleted``) moves its parent's sum by the diff's
rows alone, O(impact), instead of hashing every row again.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..datalog.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..engines.base import Solver, UpdateStats
    from ..metrics import SolverMetrics


def stable_repr(value) -> str:
    """A ``repr`` that is deterministic across interpreters.

    Exported views may hold *set-valued* lattice elements (the k-update
    points-to sets are plain ``frozenset``\\ s), and CPython renders sets
    in hash-table order: equal sets built in different insertion orders —
    or under a different ``PYTHONHASHSEED`` — can ``repr`` differently.
    The continuous-edit soak's fresh-interpreter runs caught snapshot
    digests flickering because of exactly this.  Sets therefore render
    with recursively sorted contents; everything else keeps its ``repr``.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(stable_repr(v) for v in value)) + "}"
    if isinstance(value, tuple):
        inner = ", ".join(stable_repr(v) for v in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return repr(value)


def render_row(row: tuple) -> list[str]:
    """One exported tuple as a JSON-safe list of value renderings.

    Exported views may hold lattice elements (constants, intervals, k-sets)
    alongside plain strings and ints; :func:`stable_repr` is the stable,
    round-trip comparable form, so protocol responses and golden files
    reuse it.
    """
    return [stable_repr(value) for value in row]


#: One view in order: every row's :func:`stable_repr` key and the rows
#: themselves, both in key order.
Ordered = tuple[tuple[str, ...], tuple[tuple, ...]]


def order_rows(rows: Iterable[tuple]) -> Ordered:
    """The one place exported rows are sorted: a stable sort on the
    :func:`stable_repr` key alone, so rows whose keys tie keep the order
    ``rows`` iterates them in."""
    rows = list(rows)
    keys = [stable_repr(row) for row in rows]
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return tuple([keys[i] for i in order]), tuple([rows[i] for i in order])


def match_rows(rows: Iterable[tuple], wanted: tuple) -> Iterator[tuple]:
    """The members of ``rows`` that a wire-form row names.

    Clients hold rows in two forms: raw scalars (what they inserted) and
    the rendered strings the ``query`` op returns.  A stored row matches
    when it equals ``wanted`` or renders to it (strings in ``wanted`` are
    taken as already rendered) — so any row a client read back can be fed
    to ``explain`` verbatim."""
    rendered = [
        value if isinstance(value, str) else stable_repr(value)
        for value in wanted
    ]
    for row in rows:
        if row == wanted or render_row(row) == rendered:
            yield row


#: The digest state is a sum of row hashes modulo 2**256.
_MODULUS = 1 << 256


def _rows_sum(pred: str, keys: Iterable[str]) -> int:
    """The digest state's terms for ``pred``'s rows, given their
    :func:`stable_repr` keys: blake2b-256 of ``pred \\x00 key`` as an
    integer, summed (unreduced)."""
    prefix = pred.encode("utf-8") + b"\x00"
    return sum(
        int.from_bytes(
            hashlib.blake2b(prefix + key.encode("utf-8"), digest_size=32).digest(),
            "big",
        )
        for key in keys
    )


class Snapshot:
    """One published, immutable set of exported views.

    Each view is put in order at most once, on the first read that needs it
    (:meth:`ordered`), and that render is kept for the life of the version:
    ``rows`` slices it.  Nothing is rendered for a version nobody reads, and
    no render is carried to the next version.

    The digest state (``_sum``) is carried: given its ``parent`` and the
    ``stats`` of the batch between them, a version whose parent's sum is
    known adds the hashes of the inserted rows and subtracts those of the
    deleted ones.  Otherwise it stays unknown until the first ``digest``,
    which sums every row unsorted (reusing a render's keys where one was
    built).  So a session asked for a digest once keeps it current at
    O(impact) per publish.  No snapshot references its parent.

    The read path takes no lock: two readers racing the first render (or
    the first sum) both compute the same value and either store wins.
    """

    __slots__ = ("version", "views", "_metrics", "_renders", "_sum",
                 "__weakref__")

    def __init__(
        self,
        version: int,
        views: Mapping[str, frozenset],
        metrics: "SolverMetrics | None" = None,
        parent: "Snapshot | None" = None,
        stats: "UpdateStats | None" = None,
    ):
        self.version = version
        self.views: dict[str, frozenset] = {
            pred: frozenset(rows) for pred, rows in views.items()
        }
        #: Counts ordered views built (``renders``); None counts nothing.
        self._metrics = metrics
        self._renders: dict[str, Ordered] = {}
        self._sum: int | None = None
        if parent is not None and parent._sum is not None:
            total = parent._sum
            for pred, rows in stats.inserted.items():
                total += _rows_sum(pred, map(stable_repr, rows))
            for pred, rows in stats.deleted.items():
                total -= _rows_sum(pred, map(stable_repr, rows))
            self._sum = total % _MODULUS

    def query(self, pred: str) -> frozenset:
        """The exported view of ``pred``; unknown predicates are errors,
        mirroring the strict relation stores (typos must not read as empty
        results)."""
        rows = self.views.get(pred)
        if rows is None:
            raise ServiceError(
                f"unknown predicate {pred!r}; exported predicates: "
                f"{', '.join(sorted(self.views))}"
            )
        return rows

    def ordered(self, pred: str) -> Ordered:
        """:func:`order_rows` of ``pred``'s view, built on first use."""
        render = self._renders.get(pred)
        if render is None:
            render = self._renders[pred] = order_rows(self.query(pred))
            if self._metrics is not None:
                self._metrics.renders += 1
        return render

    def rows(self, pred: str, limit: int | None = None) -> list[list[str]]:
        """Sorted, rendered rows of ``pred`` (the protocol wire form)."""
        return [render_row(row) for row in self.ordered(pred)[1][:limit]]

    def counts(self) -> dict[str, int]:
        return {pred: len(rows) for pred, rows in sorted(self.views.items())}

    def digest(self) -> str:
        """Stable fingerprint of the full exported state.

        Two snapshots digest equal iff every exported view holds the same
        rows (up to a 2**-256 collision of row-hash sums); the acceptance
        test compares a served session against a from-scratch reference
        solve through this.  Rows hash via :func:`stable_repr`, so
        set-valued lattice elements digest identically regardless of hash
        seed or construction order.  The 64-hex result is SHA-256 of the
        sorted exported predicate names and the 32-byte row-hash sum.
        """
        total = self._sum
        if total is None:
            total = sum(
                _rows_sum(pred, self._renders[pred][0] if pred in self._renders
                         else map(stable_repr, rows))
                for pred, rows in self.views.items()
            ) % _MODULUS
            self._sum = total
        hasher = hashlib.sha256()
        for pred in sorted(self.views):
            hasher.update(pred.encode("utf-8"))
            hasher.update(b"\x00")
        hasher.update(b"\x01")
        hasher.update(total.to_bytes(32, "big"))
        return hasher.hexdigest()


def take_snapshot(
    solver: "Solver",
    version: int,
    metrics: "SolverMetrics | None" = None,
    parent: Snapshot | None = None,
    stats: "UpdateStats | None" = None,
) -> Snapshot:
    """Capture every exported predicate of a solved solver; ``parent`` and
    the ``stats`` of the update since it carry the digest state."""
    return Snapshot(
        version,
        {
            pred: solver.relation(pred)
            for pred in solver.program.exported_predicates()
        },
        metrics,
        parent,
        stats,
    )
