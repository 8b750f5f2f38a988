"""Differential testing: compiled kernels vs. the run_plan interpreter.

The compiled backend must be a pure performance transformation — for every
engine, every analysis, and every corpus preset the exported relations must
be *identical* to the interpreted reference, both after the initial solve
and along an incremental change sequence.

The interpreter is selected per solver by ``SolverConfig.interpret``; every
other field comes from the environment, so a run of this suite with
self-checks on still multiplies it.
"""

from __future__ import annotations

import pytest

from repro.analyses import constant_propagation, setbased_pointsto, sign_analysis
from repro.changes import alloc_site_changes, literal_to_zero_changes
from repro.config import SolverConfig
from repro.corpus import PRESETS, load_subject
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver

ENGINES = [NaiveSolver, SemiNaiveSolver, DRedLSolver, LaddderSolver]


def solver_pair(instance, engine):
    """The same analysis on ``engine`` twice: compiled and interpreted."""
    compiled, interp = (
        instance.make_solver(
            engine, config=SolverConfig.from_env(interpret=interpret)
        )
        for interpret in (False, True)
    )
    assert interp.kernels.interpret and not compiled.kernels.interpret
    return compiled, interp


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_solve_identical_on_every_preset(preset):
    """Every corpus preset, every engine: identical exports (sign)."""
    instance = sign_analysis(load_subject(preset))
    expected = None
    for engine in ENGINES:
        compiled, interp = solver_pair(instance, engine)
        exports = compiled.relations()
        assert exports == interp.relations(), (
            f"{engine.__name__} diverges between backends on {preset}"
        )
        # All engines agree with each other as well.
        if expected is None:
            expected = exports
        else:
            assert exports == expected, f"{engine.__name__} disagrees on {preset}"


@pytest.mark.parametrize(
    "make_analysis,make_changes",
    [
        (constant_propagation, literal_to_zero_changes),
        (setbased_pointsto, alloc_site_changes),
    ],
    ids=["constprop", "setbased-pt"],
)
def test_update_sequence_identical(make_analysis, make_changes):
    """Incremental engines stay identical to their interpreted twins
    through a change sequence (exercises pinned, bound, exists, keyvalue
    and neg_skip kernels on the DRed/Laddder update paths)."""
    instance = make_analysis(load_subject("minijavac"))
    changes = make_changes(instance, 4, seed=23)
    for engine in (DRedLSolver, LaddderSolver):
        compiled, interp = solver_pair(instance, engine)
        for change in changes:
            s1 = compiled.update(
                insertions=change.insertions, deletions=change.deletions
            )
            s2 = interp.update(
                insertions=change.insertions, deletions=change.deletions
            )
            assert compiled.relations() == interp.relations(), (
                f"{engine.__name__} diverged at {change.label}"
            )
            # The logical diff of each update must match too.
            assert (s1.inserted, s1.deleted) == (s2.inserted, s2.deleted)
