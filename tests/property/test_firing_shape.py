"""Property: the generated ``RuleShape.firing`` is the interpretive loop.

``LaddderSolver._propagate`` used to compute a substitution's firing times by
walking ``shape.literals`` per substitution; ``shape.firing`` is that walk
generated once per rule as straight-line code.  The loop is kept here,
verbatim, as the oracle.

Hypothesis draws registers and first-existence tables small enough that the
interesting collisions are routine: an occurrence grounding to the changed
row (one or both of a self-join's), a negated atom present or absent, a
predicate that has no relation yet, and ``NEVER`` on either side of the move.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.datalog import parse
from repro.engines.compile import RuleShape
from repro.engines.laddder import NEVER, TimedRelation

RULES = {
    "join": "h(X, Z) :- e(X, Y), e(Y, Z).",
    "self-join": "h(X) :- e(X, Y), e(Y, X), f(X).",
    "negated": "h(X, Y) :- e(X, Y), !b(Y), f(X).",
    "negated-changed": 'h(X) :- f(X), !e(X, "k"), !e("k", X).',
    "constants-eval": 'h(X, V) :- e(X, 1), f(X), V := inc(X).',
}


def firing_oracle(relations, shape, regs, pred, row, old_first, new_first):
    """``LaddderSolver._firing_times`` as it stood before it was compiled."""
    t_old = -1.0
    t_new = -1.0
    for negated, lit_pred, grounder in shape.literals:
        grounded = grounder(regs)
        is_changed = lit_pred == pred and grounded == row
        if negated:
            if is_changed:
                f_old = 0.0 if old_first == NEVER else NEVER
                f_new = 0.0 if new_first == NEVER else NEVER
            else:
                relation = relations.get(lit_pred)
                present = (
                    relation is not None and relation.first(grounded) != NEVER
                )
                f_old = f_new = NEVER if present else 0.0
        else:
            if is_changed:
                f_old, f_new = old_first, new_first
            else:
                relation = relations.get(lit_pred)
                f_old = f_new = (
                    relation.first(grounded) if relation is not None else NEVER
                )
        t_old = max(t_old, f_old)
        t_new = max(t_new, f_new)
    return (
        NEVER if t_old == NEVER else t_old + 1,
        NEVER if t_new == NEVER else t_new + 1,
    )


values = st.sampled_from([0, 1, 2, "k"])
firsts = st.sampled_from([0, 1, 3, 7, NEVER])


@st.composite
def worlds(draw):
    """pred -> TimedRelation with drawn first-existence times; any of the
    three predicates may have no relation at all."""
    relations = {}
    for pred, arity in (("e", 2), ("f", 1), ("b", 1)):
        if draw(st.booleans()):
            continue
        relation = relations[pred] = TimedRelation(arity)
        rows = draw(st.lists(st.tuples(*[values] * arity), max_size=6))
        for row in rows:
            first = draw(firsts)
            if first != NEVER:
                relation.add_delta(row, first, 1)
    return relations


@pytest.mark.parametrize("name", sorted(RULES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_firing_matches_the_interpretive_loop(name, data):
    program = parse(RULES[name])
    shape = RuleShape(program.rules[0])
    relations = data.draw(worlds())
    regs = tuple(data.draw(values) for _ in shape.var_order)
    # The changed row: usually one a body occurrence grounds to.
    grounded = [(pred, g(regs)) for _, pred, g in shape.literals]
    pred, row = data.draw(
        st.sampled_from(grounded) | st.tuples(st.just("e"), st.tuples(values, values))
    )
    old_first, new_first = data.draw(firsts), data.draw(firsts)
    before = {p: dict(r._first) for p, r in relations.items()}
    got = shape.firing(regs, relations, pred, row, old_first, new_first)
    want = firing_oracle(relations, shape, regs, pred, row, old_first, new_first)
    assert got == want
    assert [type(t) for t in got] == [type(t) for t in want]
    # A pure probe: no relation created, no first-existence entry added.
    assert {p: dict(r._first) for p, r in relations.items()} == before


def test_both_self_join_occurrences_move_together():
    """Two occurrences grounding to the changed row both take its old/new
    first existence; the partner literal keeps its current one."""
    shape = RuleShape(parse(RULES["self-join"]).rules[0])
    e, f = TimedRelation(2), TimedRelation(1)
    e.add_delta((1, 1), 5, 1)
    f.add_delta((1,), 2, 1)
    regs = tuple({"X": 1, "Y": 1}[name] for name in shape.var_order)
    relations = {"e": e, "f": f}
    assert shape.firing(regs, relations, "e", (1, 1), NEVER, 5) == (NEVER, 6)
    assert shape.firing(regs, relations, "e", (1, 1), 5, 0) == (6, 3)
    assert shape.firing(regs, relations, "e", (1, 1), 5, NEVER) == (6, NEVER)
