"""The soak oracle must not follow the environment it is there to check."""

from repro.changes import soak
from repro.datalog import parse

PROGRAM = parse("t(X, Y) :- e(X, Y).  t(X, Z) :- t(X, Y), e(Y, Z).")
FACTS = {"e": [(i, i + 1) for i in range(6)]}


def test_reference_ignores_solver_environment(monkeypatch):
    expected = soak.reference_digest(PROGRAM, FACTS)

    built = []

    class Recording(soak.SemiNaiveSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(soak, "SemiNaiveSolver", Recording)
    # Either would change the oracle if it resolved from the environment:
    # a columnar reference cancels an intern-boundary bug on both sides,
    # and one iteration cannot close a six-edge chain.
    monkeypatch.setenv("REPRO_BACKEND", "columnar")
    monkeypatch.setenv("REPRO_MAX_ITERS", "1")

    assert soak.reference_digest(PROGRAM, FACTS) == expected
    (reference,) = built
    assert reference.backend == "object"
    assert reference.config == soak.SolverConfig()
