"""Property: the lazy column indexes of both stores stay exact.

:class:`~repro.engines.relation.IndexedRelation` and
:class:`~repro.engines.laddder.state.TimedRelation` keep every built index
current through their mutators, and roll back through the thread's undo log.
After any sequence of adds, discards, clears, index builds and guarded
transactions (committed or rolled back), every built index must equal one
rebuilt from the stored rows, and ``matching`` must equal a filter over all
rows.  Index keys are the value tuples of the indexed columns.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.laddder.state import TimedRelation
from repro.engines.relation import IndexedRelation
from repro.lattices import Const
from repro.lattices.constant import TOP
from repro.robustness.guard import UpdateGuard

ARITY = 3
VALUES = st.sampled_from([0, 1, "a", "b", Const(1), Const("x"), TOP])
ROWS = st.tuples(*[VALUES] * ARITY)
COLS = st.sets(st.integers(0, ARITY - 1), min_size=1).map(lambda s: tuple(sorted(s)))
PATTERNS = st.tuples(*[st.one_of(st.none(), VALUES)] * ARITY)


def expected_index(rows, cols) -> dict:
    index: dict = {}
    for row in rows:
        index.setdefault(tuple(row[c] for c in cols), set()).add(row)
    return index


def assert_exact(relation, patterns) -> None:
    rows = set(relation._items())
    for cols, index in relation._indexes.items():
        assert index == expected_index(rows, cols), cols
    for pattern in patterns:
        got = relation.matching(pattern)
        assert len(got) == len(set(got))
        assert set(got) == {
            row for row in rows
            if all(v is None or row[i] == v for i, v in enumerate(pattern))
        }


def guarded(steps, apply, relation, commit: bool) -> None:
    """Run ``steps`` inside a transaction, then commit or roll back."""
    before = {row: None for row in relation._items()}
    guard = UpdateGuard(SimpleNamespace(last_stats=None, _states=(), STATE={}))
    guard.install()
    try:
        for step in steps:
            apply(relation, step)
    except BaseException:
        guard.rollback()
        raise
    if commit:
        guard.commit()
    else:
        guard.rollback()
        assert set(relation._items()) == set(before)


def plain_step(relation: IndexedRelation, step) -> None:
    op, arg = step
    if op == "add":
        relation.add(arg)
    elif op == "discard":
        relation.discard(arg)
    elif op == "clear":
        relation.clear()
    else:
        relation.index_for(arg)


def timed_step(relation: TimedRelation, step) -> None:
    op, arg = step
    if op == "add":
        relation.add_delta(arg, 1, 1)
    elif op == "discard":
        if arg in relation:
            relation.add_delta(arg, 1, -1)
            relation.cleanup(arg)
    elif op == "clear":
        for row in list(relation._items()):
            relation.add_delta(row, 1, -1)
            relation.cleanup(row)
    else:
        relation.index_for(arg)


STEP = st.one_of(
    st.tuples(st.sampled_from(["add", "add", "discard"]), ROWS),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("index"), COLS),
)
SCRIPT = st.lists(
    st.one_of(
        STEP.map(lambda step: ("step", step)),
        st.tuples(st.just("guard"), st.lists(STEP, max_size=8), st.booleans()),
    ),
    max_size=25,
)


def run(relation, apply, script, patterns) -> None:
    for entry in script:
        if entry[0] == "step":
            apply(relation, entry[1])
        else:
            guarded(entry[1], apply, relation, entry[2])
        assert_exact(relation, patterns)


@settings(max_examples=150, deadline=None)
@given(SCRIPT, st.lists(PATTERNS, min_size=1, max_size=4))
def test_indexed_relation_indexes_stay_exact(script, patterns):
    run(IndexedRelation(ARITY), plain_step, script, patterns)


@settings(max_examples=150, deadline=None)
@given(SCRIPT, st.lists(PATTERNS, min_size=1, max_size=4))
def test_timed_relation_indexes_stay_exact(script, patterns):
    run(TimedRelation(ARITY), timed_step, script, patterns)
