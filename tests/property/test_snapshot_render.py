"""Render-once snapshots answer exactly what render-every-time ones did.

A :class:`~repro.service.snapshot.Snapshot` orders each exported view at
most once and serves ``rows`` and ``digest`` from that one render.  The
oracle below is the previous definition of both, verbatim: sort the view
by ``stable_repr`` on every call, render on every call.  Hypothesis draws
the views (strings, ints, ``Const``/``Top``, nested tuples, set-valued
k-update elements) and the order reads arrive in; every answer must be
equal to the oracle's — the digest byte for byte, since golden digests,
soak gates and the benchmark's reference digests are all compared to it.
"""

import hashlib

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
    hasher = hashlib.sha256()
    for pred in sorted(views):
        hasher.update(pred.encode("utf-8"))
        hasher.update(b"\x00")
        for row in sorted(views[pred], key=stable_repr):
            hasher.update(stable_repr(row).encode("utf-8"))
            hasher.update(b"\x01")
        hasher.update(b"\x02")
    return hasher.hexdigest()


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
            touched.update(preds)
        else:
            pred = preds[read[1] % len(preds)]
            got = snap.rows(pred, read[2])
            assert got == oracle_rows(snap.views[pred], read[2])
            # A response is the caller's to mutate: it must not alias the
            # render later reads are served from.
            for row in got:
                row.clear()
            touched.add(pred)
    # One render per predicate that was read, however often and however.
    assert metrics.renders == len(touched)
    assert snap.digest() == oracle_digest(snap.views)
    for pred in preds:
        assert snap.rows(pred) == oracle_rows(snap.views[pred])
    assert metrics.renders == len(preds)
