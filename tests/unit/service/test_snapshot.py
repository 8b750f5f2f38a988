"""Unit tests for versioned snapshots and their digests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyses import constant_propagation
from repro.changes import literal_to_zero_changes
from repro.corpus import load_subject
from repro.datalog.errors import ServiceError
from repro.engines import SemiNaiveSolver
from repro.engines.base import UpdateStats
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


def test_digest_carried_through_a_deleted_and_reinserted_row(engine_cls):
    """Every engine's exported diff carries the digest exactly, including
    updates that delete and re-insert one present fact: the EDB diff then
    names it on both sides, and so may the strata downstream of it."""
    instance = constant_propagation(load_subject("minijavac"))
    solver = instance.make_solver(engine_cls)
    snap = take_snapshot(solver, 1)
    snap.digest()
    row = min(instance.facts["assignlit"], key=repr)
    churn = {"assignlit": {row}}
    do, undo = literal_to_zero_changes(instance, 2, seed=3)[:2]
    batches = [
        (do.insertions, do.deletions),
        (churn, churn),
        ({**undo.insertions, **churn}, {**undo.deletions, **churn}),
    ]
    for insertions, deletions in batches:
        stats = solver.update(insertions=insertions, deletions=deletions)
        snap = take_snapshot(solver, snap.version + 1, None, snap, stats)
        assert snap.digest() == take_snapshot(solver, 0).digest()


#: A carried digest of set-valued (k-update points-to) views, printed by a
#: fresh interpreter.
_CARRY = """
import copy
from repro.analyses import kupdate_pointsto
from repro.changes.stream import EditStream, editor_for
from repro.corpus import load_subject
from repro.engines import LaddderSolver
from repro.service import take_snapshot

program = copy.deepcopy(load_subject("minijavac"))
solver = kupdate_pointsto(program).make_solver(LaddderSolver)
snap = take_snapshot(solver, 1)
print(snap.digest())
for step in EditStream(editor_for(program, "pointsto-kupdate"), seed=5).take(6):
    change = step.change
    stats = solver.update(insertions=change.insertions, deletions=change.deletions)
    snap = take_snapshot(solver, snap.version + 1, None, snap, stats)
print(snap.digest(), take_snapshot(solver, 0).digest())
"""


def test_carried_digests_agree_across_hash_seeds():
    src = Path(__file__).resolve().parents[3] / "src"
    outputs = set()
    for seed in (0, 1):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", _CARRY],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        first, last = done.stdout.split("\n", 1)
        carried, scratch = last.split()
        assert carried == scratch != first
        outputs.add(done.stdout)
    assert len(outputs) == 1


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
    snapshot, it and its kept render are garbage, also when its successor
    carried the digest from it — a long session's memory
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
    # The replacing publish carries the digest from ``old`` by the diff.
    stats = UpdateStats(deleted={"p": {(1, marker)}})
    current = Snapshot(2, {"p": {(2, "b")}}, metrics, old, stats)
    del old, marker, stats
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert current.rows("p") == [["2", "'b'"]]
    assert metrics.renders == 2  # one per version read, none carried over
    assert current.digest() == Snapshot(2, {"p": {(2, "b")}}).digest()
