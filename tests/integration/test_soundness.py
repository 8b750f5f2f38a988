"""Soundness: every analysis claim must cover what concretely executes.

The javalite interpreter provides ground truth; the abstract results of
every analysis must over-approximate it:

* points-to: every allocation site a variable concretely held is in its
  k-update set (or the set is Top),
* call graph: every concretely dispatched call edge is a resolved edge,
* reachability: every executed method is reachable,
* constants: a variable that is `Const(v)` at a node only ever held `v`
  there,
* intervals / signs: every observed value lies in the reported range /
  carries a covered sign.

Run on the Figure 3 program, a hand-made numeric program, and generated
corpora (the strongest check: random programs, real executions).
"""

import copy

import pytest

from repro.analyses import (
    constant_propagation,
    interval_analysis,
    kupdate_pointsto,
    sign_analysis,
)
from repro.corpus import load_subject
from repro.engines import LaddderSolver
from repro.javalite.interp import run_program
from repro.lattices import Const, ConstantLattice, Interval, KSetLattice
from repro.lattices.sign import SignLattice

from tests.unit.javalite.fixtures import figure3_program, numeric_program

CONST = ConstantLattice()
SIGN = SignLattice()


def check_pointsto_sound(program, k=5):
    instance = kupdate_pointsto(program, k=k)
    solver = instance.make_solver(LaddderSolver)
    trace = run_program(program)
    lattice: KSetLattice = instance.context["lattice"]
    ptlub = dict(solver.relation("ptlub"))
    for var, sites in trace.points_to.items():
        abstract = ptlub.get(var)
        assert abstract is not None, f"{var} held objects but has no ptlub"
        if abstract == lattice.top():
            continue
        assert sites <= abstract, (
            f"{var}: concrete sites {sites} not covered by {abstract}"
        )
    resolved = {(site, meth) for site, meth, _ctx_this, _l in ()} or {
        (site, meth) for site, meth in (
            (row[0], row[1]) for row in solver.relation("resolvecall")
        )
    }
    assert trace.calls <= resolved, (
        f"executed calls missing from resolvecall: {trace.calls - resolved}"
    )
    reach = {m for (m,) in solver.relation("reach")}
    executed_methods = {meth for _site, meth in trace.calls}
    assert executed_methods <= reach
    return trace


def check_values_sound(program):
    trace = run_program(program)

    const_solver = constant_propagation(program).make_solver(LaddderSolver)
    const_val = dict(
        ((node, var), v) for node, var, v in const_solver.relation("val")
    )
    interval_solver = interval_analysis(program).make_solver(LaddderSolver)
    interval_val = dict(
        ((node, var), v) for node, var, v in interval_solver.relation("val")
    )
    sign_solver = sign_analysis(program).make_solver(LaddderSolver)
    sign_val = dict(
        ((node, var), v) for node, var, v in sign_solver.relation("val")
    )

    checked = 0
    for (node, var), values in trace.values_at.items():
        numeric = [v for v in values if isinstance(v, (int, float))]
        if not numeric:
            continue
        abstract_const = const_val.get((node, var))
        if isinstance(abstract_const, Const):
            for v in numeric:
                assert v == abstract_const.value, (
                    f"{var}@{node}: saw {v}, analysis says {abstract_const}"
                )
        abstract_interval = interval_val.get((node, var))
        if isinstance(abstract_interval, Interval):
            for v in numeric:
                assert abstract_interval.contains_value(v), (
                    f"{var}@{node}: saw {v}, outside {abstract_interval}"
                )
        abstract_sign = sign_val.get((node, var))
        if abstract_sign is not None and abstract_sign != "Top":
            for v in numeric:
                assert SIGN.leq(SignLattice.of(v), abstract_sign), (
                    f"{var}@{node}: saw {v}, sign {abstract_sign}"
                )
        checked += 1
    return checked


class TestFigure3Soundness:
    def test_pointsto(self):
        trace = check_pointsto_sound(figure3_program(), k=1)
        assert trace.calls  # the program actually dispatched calls

    def test_pointsto_various_k(self):
        for k in (1, 2, 5):
            check_pointsto_sound(figure3_program(), k=k)


class TestNumericSoundness:
    def test_value_analyses(self):
        checked = check_values_sound(numeric_program())
        assert checked > 5


class TestCorpusSoundness:
    @pytest.mark.parametrize("subject", ["minijavac", "antlr"])
    def test_pointsto_on_corpus(self, subject):
        trace = check_pointsto_sound(load_subject(subject))
        assert trace.steps > 50

    @pytest.mark.parametrize("subject", ["minijavac"])
    def test_values_on_corpus(self, subject):
        checked = check_values_sound(load_subject(subject))
        assert checked > 20

    def test_random_specs_pointsto(self):
        from repro.corpus import CorpusSpec, generate

        for seed in (11, 22, 33, 44):
            spec = CorpusSpec(
                name="sound", seed=seed,
                hierarchies=2, impls_per_hierarchy=3,
                util_classes=1, util_methods_per_class=2,
                driver_methods=3, stmts_per_method=8,
            )
            check_pointsto_sound(generate(spec))

    def test_random_specs_values(self):
        from repro.corpus import CorpusSpec, generate

        for seed in (55, 66):
            spec = CorpusSpec(
                name="sound", seed=seed,
                hierarchies=1, impls_per_hierarchy=2,
                util_classes=1, util_methods_per_class=2,
                driver_methods=2, stmts_per_method=6,
            )
            check_values_sound(generate(spec))


class TestSoundnessAfterEdits:
    def test_pointsto_sound_after_source_edit(self):
        from repro.changes import IncrementalSourceEditor

        program = copy.deepcopy(load_subject("minijavac"))
        instance = kupdate_pointsto(program)
        solver = instance.make_solver(LaddderSolver)
        editor = IncrementalSourceEditor(program, kind="pointsto")
        alloc_label = next(
            s.label for m in program.methods() for s in m.statements()
            if type(s).__name__ == "New"
        )
        change = editor.delete_statement(alloc_label)
        solver.update(insertions=change.insertions, deletions=change.deletions)
        # the *edited* program's executions are covered by the updated state
        trace = run_program(program)
        lattice = instance.context["lattice"]
        ptlub = dict(solver.relation("ptlub"))
        for var, sites in trace.points_to.items():
            abstract = ptlub.get(var)
            assert abstract is not None
            if abstract != lattice.top():
                assert sites <= abstract
