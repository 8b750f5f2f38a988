"""Property-based check: provenance capture is observationally free.

Annotation capture (``SolverConfig.provenance``) must not change *any* exported
relation, on any engine, under any insert/delete epoch sequence — the
annotations are a side table, never an input to evaluation.  Each
property runs an annotated and an unannotated solver of the same engine
through the same epochs and asserts their exports stay bit-equal, then
spot-checks that the annotated side actually recorded something and that
every report it reconstructs verifies against the live state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SolverConfig
from repro.engines import (
    DRedLSolver,
    LaddderSolver,
    NaiveSolver,
    SemiNaiveSolver,
    explain,
)

from tests.unit.engines.helpers import const_prop_program, tc_program

ENGINES = [LaddderSolver, DRedLSolver, SemiNaiveSolver, NaiveSolver]


def run_pairs(program_factory, initial_facts, epochs, engines=ENGINES):
    """Drive annotated/unannotated twins per engine; exports must match."""
    pairs = []
    for engine in engines:
        twins = []
        for provenance in (False, True):
            solver = engine(
                program_factory(),
                config=SolverConfig.from_env(provenance=provenance),
            )
            for pred, rows in initial_facts.items():
                solver.add_facts(pred, rows)
            solver.solve()
            twins.append(solver)
        pairs.append(twins)

    for plain, annotated in pairs:
        assert plain.relations() == annotated.relations()

    for insertions, deletions in epochs:
        for plain, annotated in pairs:
            plain.update(insertions=insertions, deletions=deletions)
            annotated.update(insertions=insertions, deletions=deletions)
            assert plain.relations() == annotated.relations()

    # The annotated twin is not a no-op: anything derived is annotated,
    # and the recorded hints reconstruct to fact-rooted trees.
    for plain, annotated in pairs:
        assert annotated.provenance is not None
        for pred in annotated.idb:
            rows = annotated.relation(pred)
            if rows:
                row = min(rows, key=repr)
                tree = explain(annotated, pred, row)
                assert (tree.pred, tree.row) == (pred, row)
                break


def edge_strategy(n=4):
    node = st.integers(0, n)
    return st.tuples(node, node)


@settings(max_examples=30, deadline=None)
@given(
    st.sets(edge_strategy(), max_size=6),
    st.lists(
        st.tuples(st.booleans(), st.sets(edge_strategy(), min_size=1, max_size=3)),
        max_size=4,
    ),
)
def test_transitive_closure_capture_is_free(initial, changes):
    epochs = []
    for is_insert, rows in changes:
        change = {"edge": rows}
        epochs.append((change, None) if is_insert else (None, change))
    run_pairs(tc_program, {"edge": initial}, epochs)


@settings(max_examples=20, deadline=None)
@given(
    st.sets(st.tuples(st.sampled_from("vwxy"), st.integers(0, 3)), max_size=5),
    st.sets(
        st.tuples(st.sampled_from("vwxy"), st.sampled_from("vwxy")), max_size=5
    ),
    st.lists(
        st.tuples(
            st.booleans(),
            st.sets(
                st.tuples(st.sampled_from("vwxy"), st.integers(0, 3)),
                min_size=1,
                max_size=2,
            ),
        ),
        max_size=3,
    ),
)
def test_constprop_capture_is_free(lits, copies, changes):
    # Aggregation rules exercise the existence-tuple and group-state
    # paths of capture on the lattice engines.
    epochs = []
    for is_insert, rows in changes:
        change = {"lit": rows}
        epochs.append((change, None) if is_insert else (None, change))
    run_pairs(
        const_prop_program,
        {"lit": lits, "copy": copies},
        epochs,
        engines=(LaddderSolver, DRedLSolver, SemiNaiveSolver),
    )
