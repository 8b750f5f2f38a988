"""Indexed tuple storage shared by all solvers.

An :class:`IndexedRelation` is a set of tuples with lazily built, then
incrementally maintained, hash indexes on arbitrary column subsets.  Joins
probe :meth:`ColumnIndexed.matching` with a pattern (``None`` marks a free
column); the first probe on a column set builds the index, later mutations
keep every existing index current.

The lazy-index maintenance lives in :class:`ColumnIndexed` so that
:class:`repro.engines.laddder.state.TimedRelation` (tuples with timelines
instead of plain membership) shares one implementation instead of carrying
a drifting copy.

Rows are tuples of the caller's Python values and index keys are value
tuples (docs/PERFORMANCE.md, "Storage").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..datalog.errors import SolverError
from ..robustness.guard import TRANSACTION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..metrics import SolverMetrics

#: Shared empty probe result — misses return one singleton, not fresh tuples.
_EMPTY: tuple = ()


def _set_slots(obj, state) -> None:
    """``__setstate__`` of the pickled storage classes: restore the slots
    the class declares.  Checkpoints written while a second storage layout
    existed carry one more (a layout flag on relations, a layout name on
    stores), always at this layout's value; it is skipped."""
    cls = type(obj)
    for name, value in state[1].items():
        if hasattr(cls, name):
            setattr(obj, name, value)


class ColumnIndexed:
    """Lazy column-subset hash indexes over a set of same-arity tuples.

    Concrete subclasses own the tuple population: they must define ``arity``,
    ``__contains__``, an ``_items()`` iterable of stored tuples, and the
    ``_indexes``/``metrics``/``_scan_cache`` attributes (kept in subclass
    ``__slots__`` so each class controls its own layout).
    Mutations must call :meth:`_register` / :meth:`_unregister` to keep
    built indexes and the scan cache current.
    """

    __slots__ = ()

    __setstate__ = _set_slots

    def _items(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def matching(self, pattern: tuple) -> tuple:
        """All tuples agreeing with ``pattern`` on its non-None positions.

        Returns a **snapshot**: an immutable sequence detached from the
        relation's internal buckets, so callers may freely mutate the
        relation (add/discard/cleanup) while iterating the result.  Do not
        hold results across mutations expecting them to update.
        """
        metrics = self.metrics
        cols = tuple(i for i, v in enumerate(pattern) if v is not None)
        if not cols:
            rows = self.scan_rows()
            if metrics is not None:
                metrics.join_probes += 1
                metrics.join_probe_rows += len(rows)
            return rows
        if len(cols) == self.arity:
            exact = tuple(pattern)
            hit = exact in self
            if metrics is not None:
                metrics.join_probes += 1
                if hit:
                    metrics.join_probe_rows += 1
            return (exact,) if hit else _EMPTY
        bucket = self._index(cols).get(self._key_for(pattern, cols))
        if metrics is not None:
            metrics.join_probes += 1
            if bucket:
                metrics.join_probe_rows += len(bucket)
        return tuple(bucket) if bucket else _EMPTY

    def scan_rows(self) -> tuple:
        """The settled whole-relation snapshot, cached until a mutation.

        Zero-bound probes used to copy the full population per call; the
        cache makes repeated scans between mutations O(1).  The returned
        tuple is immutable, so holders survive later mutations (they just
        see the old population, exactly the ``matching`` contract).
        """
        rows = self._scan_cache
        if rows is None:
            rows = self._scan_cache = tuple(self._items())
        return rows

    def _key_for(self, item: tuple, cols: tuple[int, ...]) -> tuple:
        """The index key of ``item`` on ``cols``."""
        return tuple(item[c] for c in cols)

    def index_for(self, cols: tuple[int, ...]) -> dict:
        """The (built) index on ``cols`` — the compiled kernels' probe seam."""
        return self._index(cols)

    def _index(self, cols: tuple[int, ...]) -> dict:
        index = self._indexes.get(cols)
        if index is None:
            index = {}
            key_for = self._key_for
            for item in self._items():
                key = key_for(item, cols)
                bucket = index.get(key)
                if bucket is None:
                    bucket = index[key] = set()
                bucket.add(item)
            self._indexes[cols] = index
            if self.metrics is not None:
                self.metrics.index_builds += 1
        return index

    def _register(self, item: tuple) -> None:
        """Insert ``item`` into every built index; invalidate the scan cache."""
        self._scan_cache = None
        key_for = self._key_for
        for cols, index in self._indexes.items():
            key = key_for(item, cols)
            bucket = index.get(key)
            if bucket is None:
                bucket = index[key] = set()
            bucket.add(item)

    def _unregister(self, item: tuple) -> None:
        """Remove ``item`` from every built index; invalidate the scan cache."""
        self._scan_cache = None
        key_for = self._key_for
        for cols, index in self._indexes.items():
            key = key_for(item, cols)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(item)
                if not bucket:
                    del index[key]

    def _postings(self) -> int:
        """Index entry count, for the memory benchmarks."""
        return sum(
            len(bucket)
            for index in self._indexes.values()
            for bucket in index.values()
        )


class IndexedRelation(ColumnIndexed):
    """A mutable set of same-arity tuples with column indexes.

    While a transaction is open on the thread
    (:class:`repro.robustness.guard.UpdateGuard`), every mutation appends its
    inverse to the undo log as a ``(function, *args)`` entry; replaying the
    log in reverse restores the pre-update tuple population exactly.  The
    entries name the plain function and the relation: a bound method would
    be one more allocation per journaled mutation.
    """

    __slots__ = ("arity", "tuples", "_indexes", "metrics", "_scan_cache")

    def __init__(self, arity: int, metrics: "SolverMetrics | None" = None):
        self.arity = arity
        self.tuples: set[tuple] = set()
        # cols (sorted tuple of column positions) -> key tuple -> set of tuples
        self._indexes: dict[tuple[int, ...], dict] = {}
        self.metrics = metrics
        self._scan_cache: tuple | None = None

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.tuples)

    def __contains__(self, item: tuple) -> bool:
        return item in self.tuples

    def _items(self):
        return self.tuples

    def add(self, item: tuple) -> bool:
        """Insert; returns True iff the tuple was new."""
        if item in self.tuples:
            return False
        self.tuples.add(item)
        self._register(item)
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append((IndexedRelation.discard, self, item))
        return True

    def discard(self, item: tuple) -> bool:
        """Remove; returns True iff the tuple was present."""
        if item not in self.tuples:
            return False
        self.tuples.discard(item)
        self._unregister(item)
        undo = TRANSACTION.undo
        if undo is not None:
            undo.append((IndexedRelation.add, self, item))
        return True

    def clear(self) -> None:
        undo = TRANSACTION.undo
        if undo is not None and self.tuples:
            undo.append((IndexedRelation._restore, self, set(self.tuples)))
        self.tuples.clear()
        self._indexes.clear()
        self._scan_cache = None

    def _restore(self, items: set) -> None:
        """Journal replay target for :meth:`clear`: reinstate the dropped
        population wholesale (indexes rebuild lazily)."""
        self.tuples = set(items)
        self._indexes.clear()
        self._scan_cache = None

    def state_size(self) -> int:
        """Rough count of stored entries (tuples plus index postings), used
        by the memory benchmarks."""
        return len(self.tuples) + self._postings()


class RelationStore:
    """A name -> :class:`IndexedRelation` map with on-demand creation.

    Creation is strict: a predicate absent from the arity map is an error,
    not an empty nullary relation — silently fabricating one turns typos in
    rules or queries into wrong (empty) results instead of diagnostics.
    """

    __slots__ = ("relations", "arities", "metrics")

    __setstate__ = _set_slots

    def __init__(
        self, arities: dict[str, int], metrics: "SolverMetrics | None" = None
    ):
        self.arities = arities
        self.relations: dict[str, IndexedRelation] = {}
        self.metrics = metrics

    def get(self, pred: str) -> IndexedRelation:
        relation = self.relations.get(pred)
        if relation is None:
            arity = self.arities.get(pred)
            if arity is None:
                raise SolverError(
                    f"unknown predicate {pred!r}: not used by any rule and no "
                    f"facts were added for it"
                )
            relation = IndexedRelation(arity, metrics=self.metrics)
            self.relations[pred] = relation
            undo = TRANSACTION.undo
            if undo is not None:
                undo.append((dict.pop, self.relations, pred, None))
        return relation

    def __contains__(self, pred: str) -> bool:
        return pred in self.relations

    def snapshot(self) -> dict[str, frozenset[tuple]]:
        return {name: frozenset(rel.tuples) for name, rel in self.relations.items()}

    def state_size(self) -> int:
        return sum(rel.state_size() for rel in self.relations.values())

    def tuple_count(self) -> int:
        return sum(len(rel) for rel in self.relations.values())
