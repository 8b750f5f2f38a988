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

Storage backends
----------------

Two physical layouts hide behind the same interface (``SolverConfig.backend``):

``object`` (the default)
    rows are tuples of raw Python values; index keys are value tuples.

``columnar``
    rows are tuples of dense int handles from the solver's
    :class:`repro.engines.intern.InternTable`; every relation is *packed*
    — index keys are single machine ints (``row[c]`` for one column,
    shift-or folds for several), which skips the per-probe key-tuple
    allocation and hashes one int instead of a tuple.  Relations within
    :data:`COLUMNAR_MAX_ARITY` additionally mirror their population into
    struct-of-arrays columns (:class:`ColumnarRelation`) for cache-dense
    scans and cheap byte accounting; wider relations stay tuple-backed but
    keep the packed index keys so compiled kernels probe uniformly.

Both layouts journal mutations identically, so ``GuardedSolver`` rollback
is backend-agnostic.
"""

from __future__ import annotations

import sys
from array import array
from typing import TYPE_CHECKING, Iterator

from ..datalog.errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..metrics import SolverMetrics

#: Shared empty probe result — misses return one singleton, not fresh tuples.
_EMPTY: tuple = ()

#: Column shift for packed multi-column index keys.  Intern handles are
#: list indices, far below 2**32, so shift-or folds are collision-free.
_KEY_SHIFT = 32

#: Widest relation that materializes struct-of-arrays columns under the
#: columnar backend; wider ones keep packed keys over tuple storage.
COLUMNAR_MAX_ARITY = 16


class ColumnIndexed:
    """Lazy column-subset hash indexes over a set of same-arity tuples.

    Concrete subclasses own the tuple population: they must define ``arity``,
    ``__contains__``, an ``_items()`` iterable of stored tuples, and the
    ``_indexes``/``metrics``/``packed``/``_scan_cache`` attributes (kept in
    subclass ``__slots__`` so each class controls its own layout).
    Mutations must call :meth:`_register` / :meth:`_unregister` to keep
    built indexes and the scan cache current.

    With ``packed`` set (the columnar backend), rows are int-handle tuples
    and index keys are packed machine ints instead of key tuples.
    """

    __slots__ = ()

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

    def _key_for(self, item: tuple, cols: tuple[int, ...]):
        """The index key of ``item`` on ``cols`` for this layout."""
        if self.packed:
            if len(cols) == 1:
                return item[cols[0]]
            key = 0
            for c in cols:
                key = (key << _KEY_SHIFT) | item[c]
            return key
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

    def postings_bytes(self) -> int:
        """Approximate heap bytes held by the built indexes (containers and
        keys; the rows themselves are shared with the population)."""
        total = 0
        for index in self._indexes.values():
            total += sys.getsizeof(index)
            for key, bucket in index.items():
                total += sys.getsizeof(key) + sys.getsizeof(bucket)
        return total

    def storage_bytes(self) -> int:
        """Approximate heap bytes of the stored rows plus built indexes.

        Row *shells* (the tuple objects) are counted here; the values they
        point at are shared — with the program AST on the object backend,
        with the solver's intern table on the columnar one — and accounted
        for separately (:meth:`.InternTable.table_bytes`, deep-sizeof in
        the memory benchmark)."""
        items = self._items()
        total = sys.getsizeof(items) + self.postings_bytes()
        for row in items:
            total += sys.getsizeof(row)
        return total


class IndexedRelation(ColumnIndexed):
    """A mutable set of same-arity tuples with column indexes.

    When ``journal`` is set (a list, installed by
    :class:`repro.robustness.guard.UpdateGuard`), every mutation appends its
    inverse as a ``(callable, *args)`` entry; replaying the journal in
    reverse restores the pre-update tuple population exactly.  The per-tuple
    entries name the plain function and the relation: a bound method would
    be one more allocation per journaled mutation.
    """

    __slots__ = (
        "arity", "tuples", "_indexes", "metrics", "journal", "packed",
        "_scan_cache",
    )

    def __init__(
        self,
        arity: int,
        metrics: "SolverMetrics | None" = None,
        packed: bool = False,
    ):
        self.arity = arity
        self.tuples: set[tuple] = set()
        # cols (sorted tuple of column positions) -> packed key or key tuple
        # -> set of tuples
        self._indexes: dict[tuple[int, ...], dict] = {}
        self.metrics = metrics
        self.journal: list | None = None
        self.packed = packed
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
        if self.journal is not None:
            self.journal.append((IndexedRelation.discard, self, item))
        return True

    def discard(self, item: tuple) -> bool:
        """Remove; returns True iff the tuple was present."""
        if item not in self.tuples:
            return False
        self.tuples.discard(item)
        self._unregister(item)
        if self.journal is not None:
            self.journal.append((IndexedRelation.add, self, item))
        return True

    def clear(self) -> None:
        if self.journal is not None and self.tuples:
            self.journal.append((self._restore, set(self.tuples)))
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


class ColumnarRelation(IndexedRelation):
    """Packed-key storage with struct-of-arrays column views.

    The tuple set stays authoritative (membership, journaling and the
    index buckets all speak row tuples); the ``arity`` dense ``array('q')``
    columns are materialized **lazily** from the settled population on the
    first :meth:`column`/:meth:`column_bytes` access after a mutation.
    Mutations therefore cost exactly what the tuple-backed relation costs —
    earlier revisions maintained the mirrors eagerly via swap-remove, which
    made the columnar backend pay per ``add``/``discard`` for vectors only
    the memory benchmarks and numpy consumers ever read.  Columns expose
    zero-copy numpy int64 views where numpy is importable; the pure-python
    layout is fully self-sufficient.
    """

    __slots__ = ("_columns",)

    def __init__(self, arity: int, metrics: "SolverMetrics | None" = None):
        super().__init__(arity, metrics=metrics, packed=True)
        #: ``(population snapshot, [array per column])`` — valid while the
        #: snapshot is the relation's current :meth:`scan_rows` result.
        self._columns: tuple[tuple, list[array]] | None = None

    def _materialize(self) -> list[array]:
        rows = self.scan_rows()
        cached = self._columns
        if cached is not None and cached[0] is rows:
            return cached[1]
        columns = [array("q") for _ in range(self.arity)]
        for row in rows:
            for column, value in zip(columns, row):
                column.append(value)
        self._columns = (rows, columns)
        return columns

    def column(self, i: int):
        """Column ``i`` as a dense vector — a zero-copy numpy int64 view
        when numpy is importable, the backing ``array('q')`` otherwise."""
        backing = self._materialize()[i]
        if not len(backing):
            return backing
        # Imported here: this is numpy's only use, the default object
        # backend never reaches it, and the import costs every server
        # process ~12 MB resident.
        try:
            import numpy
        except ImportError:  # the pure-python path is mandatory
            return backing
        return numpy.frombuffer(backing, dtype=numpy.int64)

    def column_bytes(self) -> int:
        """Exact bytes held by the struct-of-arrays representation."""
        return sum(
            column.itemsize * len(column) for column in self._materialize()
        )

    def storage_bytes(self) -> int:
        """Row shells and indexes plus the materialized column vectors."""
        return super().storage_bytes() + self.column_bytes()


def make_relation(
    arity: int,
    metrics: "SolverMetrics | None" = None,
    backend: str = "object",
) -> IndexedRelation:
    """One relation of the requested backend.

    The per-relation heuristic: under the columnar backend every relation
    gets packed index keys (compiled kernels probe one uniform layout), and
    relations within :data:`COLUMNAR_MAX_ARITY` columns also materialize
    the struct-of-arrays mirrors — nullary and very wide relations skip
    the mirrors but stay packed.
    """
    if backend == "columnar":
        if 1 <= arity <= COLUMNAR_MAX_ARITY:
            relation = ColumnarRelation(arity, metrics=metrics)
        else:
            relation = IndexedRelation(arity, metrics=metrics, packed=True)
        if metrics is not None:
            metrics.columnar_relations += 1
        return relation
    return IndexedRelation(arity, metrics=metrics)


class RelationStore:
    """A name -> :class:`IndexedRelation` map with on-demand creation.

    Creation is strict: a predicate absent from the arity map is an error,
    not an empty nullary relation — silently fabricating one turns typos in
    rules or queries into wrong (empty) results instead of diagnostics.
    """

    __slots__ = ("relations", "arities", "metrics", "journal", "backend")

    def __init__(
        self,
        arities: dict[str, int],
        metrics: "SolverMetrics | None" = None,
        backend: str = "object",
    ):
        self.arities = arities
        self.relations: dict[str, IndexedRelation] = {}
        self.metrics = metrics
        self.journal: list | None = None
        self.backend = backend

    def get(self, pred: str) -> IndexedRelation:
        relation = self.relations.get(pred)
        if relation is None:
            arity = self.arities.get(pred)
            if arity is None:
                raise SolverError(
                    f"unknown predicate {pred!r}: not used by any rule and no "
                    f"facts were added for it"
                )
            relation = make_relation(arity, metrics=self.metrics, backend=self.backend)
            self.relations[pred] = relation
            if self.journal is not None:
                relation.journal = self.journal
                self.journal.append((self.relations.pop, pred, None))
        return relation

    def __contains__(self, pred: str) -> bool:
        return pred in self.relations

    def snapshot(self) -> dict[str, frozenset[tuple]]:
        return {name: frozenset(rel.tuples) for name, rel in self.relations.items()}

    def state_size(self) -> int:
        return sum(rel.state_size() for rel in self.relations.values())

    def tuple_count(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    def storage_bytes(self) -> int:
        return sum(rel.storage_bytes() for rel in self.relations.values())
