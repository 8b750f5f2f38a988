"""Balanced aggregand trees (Section 5, Figure 6 triangles).

Each (aggregation group, timestamp) bucket keeps its aggregands in a
balanced binary tree that stores, at every node, the aggregate of the
subtree rooted there — the data structure introduced in IncA [Szabó et al.
2018], applicable because well-behaving aggregators are associative and
commutative.  Inserting or deleting one aggregand touches O(log n) nodes,
after which the root aggregate (``r_i`` in Figure 6) is current.

The tree is an AVL tree keyed by :func:`canonical_key` (any total order
that is a function of value equality works — AC-ness makes the aggregation
order irrelevant); equal values share a node with a multiplicity count,
giving true multiset semantics.
"""

from __future__ import annotations

from typing import Callable, Iterator


def canonical_key(value: object) -> str:
    """A total-order key that is a function of value *equality*.

    ``repr`` alone is not: two equal frozensets can print their elements in
    different orders depending on construction history, which would make an
    equal aggregand unfindable on removal.  Sets are therefore keyed by the
    sorted keys of their elements; tuples recurse.
    """
    if isinstance(value, frozenset):
        inner = ",".join(sorted(canonical_key(v) for v in value))
        return "{" + inner + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(canonical_key(v) for v in value) + ")"
    return repr(value)


class _Node:
    __slots__ = ("key", "value", "count", "left", "right", "height", "aggregate")

    def __init__(self, key: str, value: object):
        self.key = key
        self.value = value
        self.count = 1
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.height = 1
        self.aggregate = value


class AggTree:
    """An AVL multiset of aggregands with per-node subtree aggregates."""

    __slots__ = ("_combine", "_root", "_size")

    def __init__(self, combine: Callable[[object, object], object]):
        self._combine = combine
        self._root: _Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._root is not None

    # Checkpoints never serialize the combine callable (registered callables
    # need not pickle); the restorer calls :meth:`rebind`.

    def __getstate__(self):
        return (self._root, self._size)

    def __setstate__(self, state):
        self._combine = None
        self._root, self._size = state

    def rebind(self, combine: Callable[[object, object], object]) -> None:
        self._combine = combine

    def aggregate(self):
        """The aggregate of the whole multiset (the tree-root ``r_i``)."""
        if self._root is None:
            raise LookupError("aggregate of empty AggTree")
        return self._root.aggregate

    def insert(self, value: object) -> None:
        self._root = self._insert(self._root, canonical_key(value), value)
        self._size += 1

    def remove(self, value: object) -> None:
        """Remove one occurrence; raises KeyError if absent."""
        self._root = self._remove(self._root, canonical_key(value), value)
        self._size -= 1

    def values(self) -> Iterator[object]:
        """All aggregands (with multiplicity), in key order."""
        yield from self._iter(self._root)

    # -- AVL machinery -----------------------------------------------------

    def _iter(self, node: _Node | None) -> Iterator[object]:
        if node is None:
            return
        yield from self._iter(node.left)
        for _ in range(node.count):
            yield node.value
        yield from self._iter(node.right)

    def _insert(self, node: _Node | None, key: str, value: object) -> _Node:
        if node is None:
            return _Node(key, value)
        if key == node.key:
            node.count += 1
            # Multiplicity does not change the (idempotent-or-not) subtree
            # aggregate: the node's own value enters the fold once per
            # stored distinct value.  Multiset multiplicity matters only for
            # *membership* (when the last occurrence leaves), matching the
            # collecting-relation semantics where duplicate aggregands come
            # from distinct tuples carrying the same value.
            return node
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        else:
            node.right = self._insert(node.right, key, value)
        return self._rebalance(node)

    def _remove(self, node: _Node | None, key: str, value: object) -> _Node | None:
        if node is None:
            raise KeyError(f"aggregand not present: {value!r}")
        if key == node.key:
            if node.count > 1:
                node.count -= 1
                return node
            if node.left is None:
                return node.right
            if node.right is None:
                return node.left
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key = successor.key
            node.value = successor.value
            node.count = successor.count
            node.right = self._remove_min(node.right)  # drops the whole node
            return self._rebalance(node)
        if key < node.key:
            node.left = self._remove(node.left, key, value)
        else:
            node.right = self._remove(node.right, key, value)
        return self._rebalance(node)

    def _remove_min(self, node: _Node) -> _Node | None:
        if node.left is None:
            return node.right
        node.left = self._remove_min(node.left)
        return self._rebalance(node)

    def _rebalance(self, node: _Node) -> _Node:
        self._refresh(node)
        balance = self._height(node.left) - self._height(node.right)
        if balance > 1:
            if self._height(node.left.left) < self._height(node.left.right):
                node.left = self._rotate_left(node.left)
                self._refresh(node)
            node = self._rotate_right(node)
        elif balance < -1:
            if self._height(node.right.right) < self._height(node.right.left):
                node.right = self._rotate_right(node.right)
                self._refresh(node)
            node = self._rotate_left(node)
        return node

    @staticmethod
    def _height(node: _Node | None) -> int:
        return 0 if node is None else node.height

    def _refresh(self, node: _Node) -> None:
        node.height = 1 + max(self._height(node.left), self._height(node.right))
        aggregate = node.value
        if node.left is not None:
            aggregate = self._combine(node.left.aggregate, aggregate)
        if node.right is not None:
            aggregate = self._combine(aggregate, node.right.aggregate)
        node.aggregate = aggregate

    def _rotate_left(self, node: _Node) -> _Node:
        pivot = node.right
        node.right = pivot.left
        pivot.left = node
        self._refresh(node)
        self._refresh(pivot)
        return pivot

    def _rotate_right(self, node: _Node) -> _Node:
        pivot = node.left
        node.left = pivot.right
        pivot.right = node
        self._refresh(node)
        self._refresh(pivot)
        return pivot

    def check_invariants(self) -> None:
        """Assert AVL balance and aggregate correctness (for tests)."""
        self._check(self._root)

    def _check(self, node: _Node | None) -> int:
        if node is None:
            return 0
        lh = self._check(node.left)
        rh = self._check(node.right)
        if abs(lh - rh) > 1:
            raise AssertionError("AVL balance violated")
        if node.height != 1 + max(lh, rh):
            raise AssertionError("stale height")
        expected = node.value
        if node.left is not None:
            expected = self._combine(node.left.aggregate, expected)
        if node.right is not None:
            expected = self._combine(expected, node.right.aggregate)
        if node.aggregate != expected:
            raise AssertionError("stale subtree aggregate")
        return node.height
