"""Unit tests for versioned snapshots and their digests."""

import pytest

from repro.analyses import constant_propagation
from repro.corpus import load_subject
from repro.datalog.errors import ServiceError
from repro.engines import SemiNaiveSolver
from repro.service import Snapshot, take_snapshot


def test_views_are_immutable_copies():
    live = {"p": {(1, 2)}}
    snap = Snapshot(1, live)
    live["p"].add((3, 4))
    assert snap.query("p") == frozenset({(1, 2)})
    assert isinstance(snap.query("p"), frozenset)


def test_unknown_predicate_is_an_error_not_empty():
    snap = Snapshot(1, {"p": set()})
    with pytest.raises(ServiceError, match="unknown predicate 'q'"):
        snap.query("q")
    # Known-but-empty is fine.
    assert snap.query("p") == frozenset()


def test_rows_sorted_rendered_and_limited():
    snap = Snapshot(1, {"p": {(2, "b"), (1, "a"), (3, "c")}})
    assert snap.rows("p") == [["1", "'a'"], ["2", "'b'"], ["3", "'c'"]]
    assert snap.rows("p", limit=2) == [["1", "'a'"], ["2", "'b'"]]


def test_digest_is_content_addressed():
    a = Snapshot(1, {"p": {(1,), (2,)}, "q": {("x",)}})
    b = Snapshot(99, {"q": {("x",)}, "p": {(2,), (1,)}})
    assert a.digest() == b.digest()  # version and ordering don't matter
    c = Snapshot(1, {"p": {(1,)}, "q": {("x",)}})
    assert a.digest() != c.digest()


def test_digest_separates_predicate_boundaries():
    # Rows must not leak across predicates into the same byte stream.
    a = Snapshot(1, {"p": {(1,)}, "q": set()})
    b = Snapshot(1, {"p": set(), "q": {(1,)}})
    assert a.digest() != b.digest()


def test_take_snapshot_covers_every_exported_predicate():
    instance = constant_propagation(load_subject("minijavac"))
    solver = instance.make_solver(SemiNaiveSolver)
    snap = take_snapshot(solver, 5)
    assert snap.version == 5
    assert set(snap.views) == solver.program.exported_predicates()
    assert snap.query(instance.primary) == solver.relation(instance.primary)
    assert snap.counts()[instance.primary] == len(snap.query(instance.primary))


class TestStableRendering:
    """Set-valued lattice elements must render and digest identically
    regardless of hash seed or construction order (the soak's
    fresh-interpreter runs caught digests flickering on k-sets)."""

    def test_stable_repr_sorts_set_contents(self):
        from repro.service.snapshot import stable_repr

        assert stable_repr(frozenset(["b", "a", "c"])) == "{'a', 'b', 'c'}"
        assert stable_repr({2, 1}) == "{1, 2}"
        assert stable_repr(("x", frozenset(["b", "a"]))) == "('x', {'a', 'b'})"
        assert stable_repr(("only",)) == "('only',)"
        assert stable_repr(frozenset()) == "{}"

    def test_digest_independent_of_set_construction_order(self):
        forward = frozenset(["obj1", "obj2", "obj3"])
        backward = frozenset(["obj3", "obj2", "obj1"])
        a = Snapshot(1, {"pt": {("v", forward)}})
        b = Snapshot(1, {"pt": {("v", backward)}})
        assert a.digest() == b.digest()

    def test_rows_render_sets_sorted(self):
        snap = Snapshot(1, {"pt": {("v", frozenset(["b", "a"]))}})
        assert snap.rows("pt") == [["'v'", "{'a', 'b'}"]]

    def test_repeated_reads_of_one_version_stay_stable(self):
        # The render is kept for the life of the version: a second and a
        # third read (rows at any limit, digest) must return what the first
        # did, and what an equal view built the other way round returns.
        forward = Snapshot(1, {"pt": {("v", frozenset(["b", "a"])), ("u", 1)}})
        backward = Snapshot(2, {"pt": {("u", 1), ("v", frozenset(["a", "b"]))}})
        first = (forward.rows("pt"), forward.digest())
        for _ in range(3):
            assert (forward.rows("pt"), forward.digest()) == first
            assert (backward.rows("pt"), backward.digest()) == first
        assert forward.rows("pt", limit=1) == first[0][:1]


def test_replaced_snapshot_and_its_render_are_collectable():
    """Nothing outlives a version: once no reader holds a replaced
    snapshot, it and its kept render are garbage — a long session's memory
    does not grow with the number of versions it has published."""
    import gc
    import weakref

    from repro.metrics import SolverMetrics

    class Marker:  # tuples and strings cannot be weakly referenced
        def __repr__(self):
            return "Marker"

    marker = Marker()
    metrics = SolverMetrics()
    old = Snapshot(1, {"p": {(1, marker), (2, "b")}}, metrics)
    assert old.rows("p") == [["1", "Marker"], ["2", "'b'"]]
    old.digest()
    refs = [weakref.ref(old), weakref.ref(marker)]
    current = Snapshot(2, {"p": {(2, "b")}}, metrics)  # the replacing publish
    del old, marker
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert current.rows("p") == [["2", "'b'"]]
    assert metrics.renders == 2  # one per version read, none carried over
