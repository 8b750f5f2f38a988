"""Render-once snapshots answer exactly what render-every-time ones did,
and a carried digest exactly what a from-scratch one does.

A :class:`~repro.service.snapshot.Snapshot` orders each exported view at
most once and serves ``rows`` from that one render; its digest state is
either summed from scratch or carried from a parent by a batch's exported
diff.  The oracles below are independent of both: sort the view by
``stable_repr`` on every call, render on every call; hash every row of
every view and sum on every call.  Hypothesis draws the views (strings,
ints, ``Const``/``Top``, nested tuples, set-valued k-update elements), the
order reads arrive in and the versions a chain publishes; every answer
must be equal to the oracle's — the digest byte for byte, since golden
digests, soak gates and the benchmark's reference digests are all
compared to it.
"""

import hashlib

from repro.engines.base import UpdateStats

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattices.constant import TOP, Const
from repro.metrics import SolverMetrics
from repro.service import Snapshot
from repro.service.snapshot import render_row, stable_repr


def oracle_rows(view: frozenset, limit: int | None = None) -> list[list[str]]:
    ordered = sorted(view, key=stable_repr)
    if limit is not None:
        ordered = ordered[:limit]
    return [render_row(row) for row in ordered]


def oracle_digest(views: dict[str, frozenset]) -> str:
    """SHA-256 of the sorted predicate names and the 256-bit sum of one
    blake2b-256 per row of ``pred NUL stable_repr(row)``."""
    total = 0
    for pred, view in views.items():
        for row in view:
            data = f"{pred}\x00{stable_repr(row)}".encode("utf-8")
            total += int(hashlib.blake2b(data, digest_size=32).hexdigest(), 16)
    names = b"".join(pred.encode("utf-8") + b"\x00" for pred in sorted(views))
    return hashlib.sha256(
        names + b"\x01" + (total % 2**256).to_bytes(32, "big")
    ).hexdigest()


SCALARS = st.one_of(st.integers(-99, 99), st.text(max_size=6))
ELEMENTS = st.one_of(
    SCALARS,
    SCALARS.map(Const),
    st.just(TOP),
    st.frozensets(st.text(max_size=4), max_size=4),  # k-update points-to sets
    st.tuples(SCALARS, st.tuples(SCALARS, SCALARS)),
)
ROWS = st.lists(ELEMENTS, min_size=1, max_size=4).map(tuple)
VIEWS = st.dictionaries(
    st.sampled_from(["p", "q", "val", "pt"]),
    st.frozensets(ROWS, max_size=12),
    min_size=1,
    max_size=3,
)
#: A read: ``("digest",)`` or ``("rows", which predicate, limit)``.
READS = st.lists(
    st.one_of(
        st.just(("digest",)),
        st.tuples(
            st.just("rows"),
            st.integers(0, 2),
            st.one_of(st.none(), st.integers(0, 15)),
        ),
    ),
    min_size=1,
    max_size=8,
)


@given(VIEWS, READS)
@settings(max_examples=300, deadline=None)
def test_reads_equal_the_oracle_in_every_call_order(views, reads):
    metrics = SolverMetrics()
    snap = Snapshot(1, views, metrics)
    preds = sorted(views)
    touched = set()
    for read in reads:
        if read[0] == "digest":
            assert snap.digest() == oracle_digest(snap.views)
        else:
            pred = preds[read[1] % len(preds)]
            got = snap.rows(pred, read[2])
            assert got == oracle_rows(snap.views[pred], read[2])
            # A response is the caller's to mutate: it must not alias the
            # render later reads are served from.
            for row in got:
                row.clear()
            touched.add(pred)
    # One render per predicate that was read, however often and however;
    # a digest renders nothing.
    assert metrics.renders == len(touched)
    assert snap.digest() == oracle_digest(snap.views)
    for pred in preds:
        assert snap.rows(pred) == oracle_rows(snap.views[pred])
    assert metrics.renders == len(preds)


#: Successive states of one chain: each version keeps, drops or adds rows
#: of the same predicates as the first.
CHAINS = VIEWS.flatmap(
    lambda first: st.lists(
        st.fixed_dictionaries(
            {pred: st.frozensets(ROWS, max_size=12) for pred in first}
        ),
        min_size=1,
        max_size=5,
    ).map(lambda rest: [first, *rest])
)


@given(CHAINS, st.lists(st.booleans(), min_size=5, max_size=5), st.data())
@settings(max_examples=100, deadline=None)
def test_a_carried_digest_equals_a_from_scratch_one(chain, reads, data):
    """Each version is published from its parent and the exact diff, as a
    session does, with some rows both deleted and re-inserted (the diff a
    batch that deletes and restores one row yields).  Whichever versions
    are read, and whenever the chain starts carrying, every digest equals
    the oracle's."""
    snap = Snapshot(1, chain[0])
    for version, (views, read) in enumerate(zip(chain[1:], reads), start=2):
        stats = UpdateStats()
        for pred, view in views.items():
            kept = sorted(view & snap.views[pred], key=stable_repr)
            churn = set(data.draw(st.sampled_from([[], kept[:1]])))
            stats.inserted[pred] = set(view - snap.views[pred]) | churn
            stats.deleted[pred] = set(snap.views[pred] - view) | churn
        if read:
            assert snap.digest() == oracle_digest(snap.views)
        snap = Snapshot(version, views, parent=snap, stats=stats)
    # Carried from the first read on; lazy while nothing was read.
    assert (snap._sum is not None) == any(reads[: len(chain) - 1])
    assert snap.digest() == oracle_digest(snap.views)
