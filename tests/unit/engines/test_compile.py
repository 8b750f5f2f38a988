"""Unit tests for the compiled rule-kernel layer.

Covers the specialization claims of :mod:`repro.engines.compile` one by one:
compile-time constant folding, repeated-variable unification, negation
guards (including the ``neg_skip`` waiver), fully-bound membership probes,
Eval/Test inlining, the emit modes, the kernel cache + metrics accounting,
and the cardinality-aware planner with its between-strata re-plan policy.
Where behaviour must match the ``run_plan`` interpreter, both backends run
on the same inputs.
"""

from __future__ import annotations

import pytest

from repro.analyses import ANALYSES
from repro.config import SolverConfig
from repro.corpus import load_subject
from repro.datalog import parse
from repro.datalog.ast import Literal, Variable
from repro.datalog.planning import plan_body
from repro.engines.aggspec import compile_agg_specs
from repro.engines.compile import KernelCache, RuleShape, compile_extractor
from repro.engines.laddder import LaddderSolver
from repro.engines.relation import IndexedRelation
from repro.engines.seminaive import SemiNaiveSolver
from repro.lattices import ConstantLattice, lub
from repro.metrics import SolverMetrics


def make_lookup(facts: dict[str, set[tuple]], arities: dict[str, int] | None = None):
    """Build an IndexedRelation store + lookup callable from literal facts."""
    rels: dict[str, IndexedRelation] = {}
    for pred, rows in facts.items():
        arity = (arities or {}).get(pred)
        if arity is None:
            arity = len(next(iter(rows)))
        rel = IndexedRelation(arity)
        for row in rows:
            rel.add(row)
        rels[pred] = rel
    return rels, rels.__getitem__


def both_kernels(program, rule, **kwargs):
    """The same kernel from the compiled and the interpreted backend."""
    compiled = KernelCache(program, interpret=False).kernel(rule, **kwargs)
    interp = KernelCache(program, interpret=True).kernel(rule, **kwargs)
    assert compiled.compiled and not interp.compiled
    return compiled, interp


class TestConstantFolding:
    def test_body_constant_narrows_scan(self):
        p = parse('p(X) :- e("a", X).')
        rule = p.rules[0]
        _, lookup = make_lookup({"e": {("a", 1), ("a", 2), ("b", 3)}})
        compiled, interp = both_kernels(p, rule)
        assert sorted(compiled.fn(lookup)) == [(1,), (2,)]
        assert sorted(interp.fn(lookup)) == [(1,), (2,)]
        # The constant travels via the closure environment into the inline
        # key of a hoisted column-0 index — no runtime dispatch on AST
        # nodes, no pattern to take apart per probe.
        src = compiled.fn.__kernel_source__
        assert "_r0._indexes.get((0,))" in src
        assert ".get((_c0,))" in src
        assert ".matching(" not in src

    def test_head_constant_is_inlined(self):
        p = parse('p("ok", X) :- e(X).')
        _, lookup = make_lookup({"e": {(1,), (2,)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert sorted(compiled.fn(lookup)) == [("ok", 1), ("ok", 2)]
        assert sorted(compiled.fn(lookup)) == sorted(interp.fn(lookup))

    def test_pinned_constant_mismatch_yields_nothing(self):
        p = parse('p(X) :- e("a", X).')
        rule = p.rules[0]
        _, lookup = make_lookup({"e": {("a", 1)}})
        compiled, interp = both_kernels(p, rule, pinned=0)
        for kernel in (compiled, interp):
            assert list(kernel.fn(lookup, ("b", 9))) == []
            assert list(kernel.fn(lookup, ("a", 9))) == [(9,)]


class TestRepeatedVariables:
    def test_diagonal_within_one_atom(self):
        p = parse("d(X) :- e2(X, X).")
        _, lookup = make_lookup({"e2": {(1, 1), (1, 2), (3, 3)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert sorted(compiled.fn(lookup)) == [(1,), (3,)]
        assert sorted(compiled.fn(lookup)) == sorted(interp.fn(lookup))
        # Later occurrences filter rather than re-probe: one scan, with the
        # repeated position as the batched comprehension's condition.
        src = compiled.fn.__kernel_source__
        assert src.count(".scan_rows()") == 1
        assert "if _t0[1] == _t0[0]]" in src

    def test_pinned_repeated_variable_unifies(self):
        p = parse("d(X) :- e2(X, X).")
        _, lookup = make_lookup({"e2": {(1, 1)}})
        compiled, interp = both_kernels(p, p.rules[0], pinned=0)
        for kernel in (compiled, interp):
            assert list(kernel.fn(lookup, (1, 2))) == []
            assert list(kernel.fn(lookup, (1, 1))) == [(1,)]

    def test_join_consistency_across_literals(self):
        p = parse("j(X, Y) :- e(X, Y), f(Y, X).")
        _, lookup = make_lookup({"e": {(1, 2), (3, 4)}, "f": {(2, 1), (4, 9)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert list(compiled.fn(lookup)) == [(1, 2)]
        assert list(compiled.fn(lookup)) == list(interp.fn(lookup))

    def test_fully_bound_literal_becomes_membership(self):
        p = parse("m(X) :- e(X), f(X).")
        _, lookup = make_lookup({"e": {(1,), (2,)}, "f": {(2,), (3,)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert sorted(compiled.fn(lookup)) == [(2,)]
        assert sorted(compiled.fn(lookup)) == sorted(interp.fn(lookup))
        # The second literal is a plain membership probe, not a loop.
        src = compiled.fn.__kernel_source__
        assert src.count("for ") == 1 and "_indexes" not in src
        assert " in _r1:" in src


class TestNegation:
    PROGRAM = "q(X) :- n(X), !b(X)."

    def test_negation_filters(self):
        p = parse(self.PROGRAM)
        _, lookup = make_lookup({"n": {(1,), (2,), (3,)}, "b": {(2,)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert sorted(compiled.fn(lookup)) == [(1,), (3,)]
        assert sorted(compiled.fn(lookup)) == sorted(interp.fn(lookup))

    def test_neg_skip_waives_exactly_one_row(self):
        # DRed insertion sweeps re-run negated occurrences pretending the
        # inserted tuple is absent; the waiver must hit only that (pred, row).
        p = parse(self.PROGRAM)
        _, lookup = make_lookup({"n": {(1,), (2,)}, "b": {(1,), (2,)}})
        compiled, interp = both_kernels(p, p.rules[0])
        for kernel in (compiled, interp):
            assert sorted(kernel.fn(lookup, neg_skip=("b", (2,)))) == [(2,)]
            assert list(kernel.fn(lookup, neg_skip=("b", (9,)))) == []
            assert list(kernel.fn(lookup, neg_skip=("n", (2,)))) == []


class TestEvalAndTest:
    def test_eval_binds_fresh_variable(self):
        p = parse("s(X, Y) :- e(X), Y := add(X, X).")
        _, lookup = make_lookup({"e": {(2,), (5,)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert sorted(compiled.fn(lookup)) == [(2, 4), (5, 10)]
        assert sorted(compiled.fn(lookup)) == sorted(interp.fn(lookup))

    def test_eval_on_bound_variable_guards(self):
        # Y is bound by the literal first; the Eval becomes an equality check.
        p = parse("t(X) :- e(X, Y), Y := add(X, 1).")
        _, lookup = make_lookup({"e": {(1, 2), (1, 5), (4, 5)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert sorted(compiled.fn(lookup)) == [(1,), (4,)]
        assert sorted(compiled.fn(lookup)) == sorted(interp.fn(lookup))

    def test_test_filters(self):
        p = parse("u(X) :- e(X), ?lt(X, 3).")
        _, lookup = make_lookup({"e": {(1,), (2,), (7,)}})
        compiled, interp = both_kernels(p, p.rules[0])
        assert sorted(compiled.fn(lookup)) == [(1,), (2,)]
        assert sorted(compiled.fn(lookup)) == sorted(interp.fn(lookup))

    def test_unregistered_function_fails_at_run_time(self):
        # Matching the interpreter: the KeyError surfaces when the kernel
        # runs, not when it compiles (registration may happen later).
        p = parse("s(Y) :- e(X), Y := mystery(X).")
        _, lookup = make_lookup({"e": {(1,)}})
        kernel = KernelCache(p, interpret=False).kernel(p.rules[0])
        with pytest.raises(KeyError):
            list(kernel.fn(lookup))
        p.register_function("mystery", lambda x: -x)
        fresh = KernelCache(p, interpret=False).kernel(p.rules[0])
        assert list(fresh.fn(lookup)) == [(-1,)]


class TestEmitModes:
    def test_regs_order_is_sorted_variable_names(self):
        p = parse("h(Z, A) :- e(A, M), f(M, Z).")
        rule = p.rules[0]
        _, lookup = make_lookup({"e": {(1, 2)}, "f": {(2, 3)}})
        shape = RuleShape(rule)
        assert shape.var_order == ("A", "M", "Z")
        compiled, interp = both_kernels(p, rule, emit="regs")
        assert list(compiled.fn(lookup)) == [(1, 2, 3)]
        assert list(compiled.fn(lookup)) == list(interp.fn(lookup))
        # head_of recovers the head row from the register tuple.
        assert shape.head_of((1, 2, 3)) == (3, 1)
        # literals ground each body atom from the same registers.
        rows = [grounder((1, 2, 3)) for _, _, grounder in shape.literals]
        assert rows == [(1, 2), (2, 3)]

    def test_exists_short_probe(self):
        p = parse("q(X) :- n(X), !b(X).")
        rule = p.rules[0]
        _, lookup = make_lookup({"n": {(1,)}, "b": set()}, arities={"b": 1})
        compiled, interp = both_kernels(
            p, rule, bound=frozenset({"X"}), emit="exists"
        )
        for kernel in (compiled, interp):
            assert any(kernel.fn(lookup, {"X": 1}))
            assert not any(kernel.fn(lookup, {"X": 7}))


AGG_SOURCE = """
total(V, lub<C>) :- cell(V, V, C).
.export total.
"""


def agg_spec():
    p = parse(AGG_SOURCE)
    p.register_aggregator("lub", lub(ConstantLattice()))
    specs = compile_agg_specs(p.rules, p)
    return p, specs["total"]


class TestAggregationKernels:
    def test_keyvalue_emit(self):
        p, spec = agg_spec()
        _, lookup = make_lookup({"cell": {(1, 1, "a"), (1, 2, "b"), (2, 2, "c")}})
        compiled, interp = both_kernels(
            p, spec.rule, emit="keyvalue", spec=spec
        )
        expected = [((1,), "a"), ((2,), "c")]
        assert sorted(compiled.fn(lookup)) == expected
        assert sorted(interp.fn(lookup)) == expected

    def test_extractor_splits_and_rejects(self):
        _, spec = agg_spec()
        for extract in (
            compile_extractor(spec),
            compile_extractor(spec, interpret=True),
        ):
            assert extract((1, 1, "a")) == ((1,), "a")
            # Repeated-variable mismatch in the collecting literal.
            assert extract((1, 2, "a")) is None


class TestKernelCache:
    def test_cache_hits_and_misses_are_counted(self):
        p = parse("p(X) :- e(X).")
        rule = p.rules[0]
        m = SolverMetrics()
        cache = KernelCache(p, metrics=m, interpret=False)
        k1 = cache.kernel(rule)
        k2 = cache.kernel(rule)
        assert k1 is k2
        assert m.rules_compiled == 1
        assert m.plan_cache_misses == 1
        assert m.plan_cache_hits == 1
        assert m.compile_seconds > 0
        # A different specialization is a distinct cache entry.
        cache.kernel(rule, pinned=0)
        assert m.rules_compiled == 2

    def test_refresh_evicts_on_cardinality_shift(self):
        p = parse("j(X, Z) :- e(X, Y), f(Y, Z).")
        rule = p.rules[0]
        rels, lookup = make_lookup(
            {"e": {(1, 2)}, "f": {(2, 3)}}, arities={"e": 2, "f": 2}
        )
        m = SolverMetrics()
        cache = KernelCache(p, metrics=m, interpret=False)

        def oracle(pred):
            return len(rels[pred])

        cache.kernel(rule, oracle=oracle)
        # Stable sizes: nothing to do.
        assert cache.refresh([rule], oracle) == 0
        assert m.replans_triggered == 0
        # Below the factor: still cached.
        for i in range(2):
            rels["e"].add((10 + i, 2))
        assert cache.refresh([rule], oracle) == 0
        # At/above the factor: evicted, next request re-plans.
        for i in range(10):
            rels["f"].add((2, 100 + i))
        assert cache.refresh([rule], oracle) == 1
        assert m.replans_triggered == 1
        cache.kernel(rule, oracle=oracle)
        assert m.rules_compiled == 2

    def test_replan_guard_brackets_refresh(self, monkeypatch):
        # The guard's safe intervals are exactly the sizes for which
        # refresh is a no-op — the engines use it to skip the full sweep.
        p = parse("j(X, Z) :- e(X, Y), f(Y, Z).")
        rule = p.rules[0]
        sizes = {"e": 8, "f": 8}
        assert KernelCache.REPLAN_FACTOR == 4.0
        cache = KernelCache(p, interpret=False)
        cache.kernel(rule, oracle=sizes.__getitem__)
        guard = cache.replan_guard([rule])
        assert set(guard) == {"e", "f"}
        lo, hi = guard["e"]
        assert lo == pytest.approx(2.0) and hi == pytest.approx(32.0)
        for safe in (3, 8, 31):
            assert lo < safe < hi
            assert cache.refresh([rule], {"e": safe, "f": 8}.__getitem__) == 0
        assert not lo < 32 < hi
        assert cache.refresh([rule], {"e": 32, "f": 8}.__getitem__) == 1
        # Without sized kernels (or with re-planning disabled) the guard is
        # empty: nothing can ever go stale.
        fresh = KernelCache(p, interpret=False)
        fresh.kernel(rule)
        assert fresh.replan_guard([rule]) == {}
        monkeypatch.setattr(KernelCache, "REPLAN_FACTOR", 0.0)
        assert cache.replan_guard([rule]) == {}

    def test_replan_factor_zero_disables(self, monkeypatch):
        p = parse("p(X) :- e(X).")
        rule = p.rules[0]
        rels, _ = make_lookup({"e": {(1,)}})
        monkeypatch.setattr(KernelCache, "REPLAN_FACTOR", 0.0)
        cache = KernelCache(p, interpret=False)
        cache.kernel(rule, oracle=lambda pred: len(rels[pred]))
        for i in range(100):
            rels["e"].add((i,))
        assert cache.refresh([rule], lambda pred: len(rels[pred])) == 0

    def test_kernels_without_oracle_never_replan(self):
        p = parse("p(X) :- e(X).")
        rule = p.rules[0]
        cache = KernelCache(p, interpret=False)
        cache.kernel(rule)  # no oracle => no size snapshot
        assert cache.refresh([rule], lambda pred: 10**6) == 0

    def test_failed_compile_leaves_cache_clean(self):
        # Exception safety: a failure mid-build must not leave a partial
        # registration behind (a poisoned entry would serve every later
        # request for that specialization), and the metrics must stay
        # balanced — the miss and the time spent are real, the compile
        # never completed.
        from repro.robustness import FaultInjected, inject

        p = parse("p(X) :- e(X).")
        rule = p.rules[0]
        m = SolverMetrics()
        cache = KernelCache(p, metrics=m, interpret=False)
        with inject("compile.build"):
            with pytest.raises(FaultInjected):
                cache.kernel(rule)
        assert cache._kernels == {}
        assert m.plan_cache_misses == 1
        assert m.rules_compiled == 0
        assert m.compile_seconds > 0
        # The next request recovers: a fresh miss, a real compile.
        kernel = cache.kernel(rule)
        _, lookup = make_lookup({"e": {(1,)}})
        assert list(kernel.fn(lookup)) == [(1,)]
        assert m.plan_cache_misses == 2
        assert m.rules_compiled == 1
        assert len(cache._kernels) == 1


class TestCompileHoistedOutOfFixpoint:
    """The satellite guarantee: planning/compilation happens once per
    distinct (rule, occurrence, bound-set, emit) specialization — never
    per fixpoint round or per update."""

    def test_compile_count_equals_distinct_specializations(self):
        p = parse(
            """
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            .export tc.
            """
        )
        m = SolverMetrics()
        solver = SemiNaiveSolver(p, metrics=m)
        solver.add_facts("edge", {(1, 2), (2, 3), (3, 4)})
        solver.solve()
        assert m.rules_compiled == m.plan_cache_misses
        # Every compile corresponds to exactly one live cache entry.
        assert m.rules_compiled == len(solver.kernels._kernels)
        compiled_after_solve = m.rules_compiled

        # Re-solving and small updates only hit the cache; the fixpoint
        # rounds themselves never plan or compile.
        solver.solve()
        solver.update(insertions={"edge": {(4, 5)}})
        assert m.replans_triggered == 0
        assert m.rules_compiled == compiled_after_solve
        assert m.plan_cache_hits > 0
        assert m.rules_compiled == len(solver.kernels._kernels)


class TestOracleJoinOrdering:
    def test_selective_relation_leads(self):
        p = parse("h(X, Z) :- big(X, Y), small(Y, Z).")
        rule = p.rules[0]
        sizes = {"big": 1000, "small": 2}
        plan = plan_body(rule, oracle=sizes.__getitem__)
        literals = [item.pred for item in plan if isinstance(item, Literal)]
        assert literals == ["small", "big"]
        # Without an oracle the textual order wins (greedy most-bound-first
        # with a stable tie-break) — plan stability for the interpreter.
        plan = plan_body(rule)
        literals = [item.pred for item in plan if isinstance(item, Literal)]
        assert literals == ["big", "small"]

    def test_bound_columns_discount_cost(self):
        # Joining through the bound variable makes the big relation cheap:
        # once X is bound by fact(X), big(X, Y) probes an index bucket.
        p = parse("h(Y) :- fact(X), big(X, Y).")
        rule = p.rules[0]
        sizes = {"fact": 4, "big": 10000}
        plan = plan_body(rule, oracle=sizes.__getitem__)
        literals = [item.pred for item in plan if isinstance(item, Literal)]
        assert literals == ["fact", "big"]

    def test_oracle_plans_stay_admissible_with_negation(self):
        # Negated/Eval/Test items still wait for their variables no matter
        # how cheap the oracle claims they are.
        p = parse("q(X) :- n(X), !b(X).")
        rule = p.rules[0]
        sizes = {"n": 1000, "b": 1}
        plan = plan_body(rule, oracle=sizes.__getitem__)
        assert [item.pred for item in plan] == ["n", "b"]


class TestOneLoweringOnEveryBundledRule:
    """Every rule of every bundled analysis, both backends, every emit and
    call mode the engines request: the generated source never goes through
    ``matching()``, and the kernel enumerates exactly what the ``run_plan``
    kernel does on the solved state."""

    #: Rows fed to pinned/bound kernels per relation (the solved relations
    #: hold hundreds; a sample keeps the sweep in seconds).
    SAMPLE = 25

    @staticmethod
    def agree(compiled, interp, *args):
        assert ".matching(" not in compiled.fn.__kernel_source__
        got = sorted(compiled.fn(*args), key=repr)
        assert got == sorted(interp.fn(*args), key=repr)
        return len(got)

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    @pytest.mark.parametrize("analysis", sorted(ANALYSES))
    def test_compiled_equals_interpreted(self, analysis, backend):
        instance = ANALYSES[analysis](load_subject("minijavac"))
        solver = instance.make_solver(
            LaddderSolver, config=SolverConfig(backend=backend)
        )
        caches = [
            KernelCache(solver.program, interpret=flag, backend=backend)
            for flag in (False, True)
        ]

        def both(rule, **kwargs):
            return [cache.kernel(rule, **kwargs) for cache in caches]

        enumerated = 0
        for state in solver._states:
            lookup = state.rel
            for rule in state.plain_rules:
                for emit in ("head", "regs", "exists"):
                    enumerated += self.agree(*both(rule, emit=emit), lookup)
                head_vars = frozenset(v.name for v in rule.head_variables())
                for head_row in sorted(lookup(rule.head.pred), key=repr)[: self.SAMPLE]:
                    binding = caches[0].shape(rule).bind_head(head_row)
                    if binding is not None:
                        enumerated += self.agree(
                            *both(rule, bound=head_vars, emit="exists"),
                            lookup, binding,
                        )
            for pred, entries in state.occurrences.items():
                rows = sorted(lookup(pred), key=repr)[: self.SAMPLE]
                for rule, _literal, occ in entries:
                    for emit in ("head", "regs"):
                        kernels = both(rule, pinned=occ, emit=emit)
                        for row in rows:
                            enumerated += self.agree(*kernels, lookup, row)
            for spec in state.specs.values():
                kernels = both(spec.rule, emit="keyvalue", spec=spec)
                enumerated += self.agree(*kernels, lookup)
                # DRedL's recompute probe: the group's variables bound.
                group = [
                    (i, term.name)
                    for i, term in enumerate(
                        t for p, t in enumerate(spec.head.args) if p != spec.agg_pos
                    )
                    if isinstance(term, Variable)
                ]
                kernels = both(
                    spec.rule, bound=frozenset(name for _, name in group),
                    emit="keyvalue", spec=spec,
                )
                for row in sorted(lookup(spec.pred), key=repr)[: self.SAMPLE]:
                    key, _ = spec.split_tuple(row)
                    binding = {name: key[i] for i, name in group}
                    enumerated += self.agree(*kernels, lookup, binding)
        assert enumerated > 0
