"""Properties of the intern boundary (``repro.engines.intern``).

The columnar backend rests on two claims: the constant <-> handle mapping
is a *bijection that round-trips every constant kind bit-faithfully*, and
checkpoints written and restored under either backend describe the same
analysis state.  Hypothesis drives both: arbitrary mixed-type constants
through :class:`InternTable`, and seeded change prefixes through the
save/restore/resume cycle under ``object`` and ``columnar`` side by side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import constant_propagation
from repro.changes import literal_to_zero_changes
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.datalog.errors import CheckpointError
from repro.engines import LaddderSolver, SemiNaiveSolver
from repro.engines.checkpoint import load_checkpoint, save_checkpoint
from repro.engines.intern import InternTable

#: Every constant kind the analyses put in relations: identifiers and
#: literal values (str/int/float/bool/None) plus the tuple-shaped lattice
#: elements (intervals, tagged sums) that aggregation rules store.
SCALARS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
CONSTANTS = st.one_of(SCALARS, st.tuples(SCALARS, SCALARS))


@given(st.lists(CONSTANTS, max_size=50))
@settings(max_examples=200, deadline=None)
def test_extern_intern_roundtrip(values):
    """extern(intern(x)) == x, same-type; handles are stable and dense."""
    table = InternTable()
    handles = [table.intern(v) for v in values]
    for value, handle in zip(values, handles):
        out = table.extern(handle)
        assert out == value
        assert type(out) is type(value)
        # Idempotent: re-interning yields the same handle.
        assert table.intern(value) == handle
    # Handles are dense list indices: one per *distinct* (type, value).
    assert len(table) <= len(values)
    assert sorted(set(handles)) == list(range(len(table)))
    # dump/restore into a fresh table reproduces the assignment exactly.
    clone = InternTable()
    clone.restore(table.dump())
    for value, handle in zip(values, handles):
        assert clone.intern(value) == handle
        assert clone.extern(handle) == value


def test_type_aware_identity():
    """Python-equal constants of different types get distinct handles —
    ``1 == True == 1.0`` must not collapse in storage."""
    table = InternTable()
    handles = {table.intern(v) for v in (1, True, 1.0)}
    assert len(handles) == 3
    assert [table.extern(h) for h in sorted(handles)] == [1, True, 1.0]


@given(st.lists(st.tuples(CONSTANTS, CONSTANTS), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_row_roundtrip_and_readonly_lookup(rows):
    table = InternTable()
    for row in rows:
        interned = table.intern_row(row)
        assert all(isinstance(h, int) for h in interned)
        assert table.extern_row(interned) == row
        # Read-only probe of a seen row: same handles, no growth.
        size = len(table)
        assert table.lookup_row(row) == interned
        assert len(table) == size
    # A row containing a never-seen constant cannot match, and probing it
    # must not assign handles.
    size = len(table)
    assert table.lookup_row((object(),)) is None
    assert len(table) == size


def _checkpoint_resume(backend, engine_cls, path, seed):
    """Solve, apply a change, checkpoint, restore, resume; return the
    exported relations of saver and restorer after one more change."""
    config = SolverConfig(backend=backend)
    instance = constant_propagation(load_subject("minijavac", scale=0.3))
    changes = literal_to_zero_changes(instance, 2, seed=seed)
    solver = instance.make_solver(engine_cls, config=config)
    solver.update(
        insertions=changes[0].insertions, deletions=changes[0].deletions
    )
    save_checkpoint(solver, path)
    restored = load_checkpoint(engine_cls, instance.program, path, config=config)
    for s in (solver, restored):
        s.update(
            insertions=changes[1].insertions, deletions=changes[1].deletions
        )
    return solver.relations(), restored.relations()


@pytest.mark.parametrize("engine_cls", [LaddderSolver, SemiNaiveSolver])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=3, deadline=None)
def test_checkpoint_backends_agree(engine_cls, tmp_path_factory, seed):
    """Checkpoint save/restore/resume under each backend, bit-equal across
    backends: the handle indirection must be invisible in every export."""
    tmp = tmp_path_factory.mktemp("ckpt")
    results = {}
    for backend in ("object", "columnar"):
        live, restored = _checkpoint_resume(
            backend, engine_cls, tmp / f"{backend}-{seed}.ckpt", seed
        )
        assert restored == live
        results[backend] = restored
    assert results["columnar"] == results["object"]


def test_checkpoint_backend_mismatch_rejected(tmp_path):
    """A columnar checkpoint names its backend; restoring it into an
    object-backed solver is a refusal, not a silent re-encode."""
    instance = constant_propagation(load_subject("minijavac", scale=0.3))
    solver = instance.make_solver(
        SemiNaiveSolver, config=SolverConfig(backend="columnar")
    )
    path = tmp_path / "col.ckpt"
    save_checkpoint(solver, path)
    with pytest.raises(CheckpointError, match="SolverConfig.backend"):
        load_checkpoint(
            SemiNaiveSolver,
            instance.program,
            path,
            config=SolverConfig(backend="object"),
        )
