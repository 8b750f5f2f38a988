"""Compiled rule kernels: specialized enumeration pipelines per planned body.

:func:`repro.engines.grounding.run_plan` is a recursive generator that
re-dispatches on AST node types for every tuple and threads bindings through
a dict — correct, but the dominant cost of every engine.  This module lowers
each planned body into a flat, specialized Python generator *once* per
``(rule, pinned occurrence, bound set, emit mode)``:

* variables become fixed local slots instead of dict keys,
* ``pattern_for``/``unify_tuple`` specialize into per-literal probe-and-bind
  steps — constants and repeated-variable checks are resolved at compile
  time, and fully bound probes become plain membership tests,
* ``Eval``/``Test``/negation become inlined guards with their callables
  resolved from the program registries up front,
* the head projection (or aggregation key/value split) is fused into the
  innermost loop, so no intermediate binding dict ever exists.

The generated source is plain Python compiled with :func:`exec`; the
original interpreter remains available as ``KernelCache(interpret=True)``
(``SolverConfig.interpret``) with *identical* kernel signatures: it is the
reference implementation the differential tests compare against.

Kernels are produced and cached by :class:`KernelCache`, one per solver.
The body is planned by estimated cost against the sizes a cardinality
oracle reports (:func:`repro.datalog.planning.plan_body`); the default
oracle, ``no_sizes``, gives the greedy most-bound-first order, which every
solve uses.  Nothing is ever evicted: only an in-place engine's first update
visit asks for a sized plan (docs/PERFORMANCE.md, "When a kernel is
planned"), and the cache keeps the greedy and the sized kernel of one
specialization side by side.

Emit modes
----------

``head``
    yield the instantiated head tuple (the common case);
``regs``
    yield the full variable valuation as a tuple in sorted-name order — the
    Laddder engine's canonical substitution for dedup and firing-time
    grounding (see :class:`RuleShape`);
``keyvalue``
    yield ``(group key, aggregand value)`` for an aggregation rule;
``exists``
    return whether some substitution satisfies the body, from a plain
    function that stops at the first (re-derivation checks).

Call signatures (identical in compiled and interpreted mode):

* scan kernels: ``fn(lookup, neg_skip=None)``
* pinned kernels: ``fn(lookup, row, neg_skip=None)`` — the pinned
  occurrence is unified against ``row`` in a fused prologue; a mismatch
  yields nothing (the ``bind_pinned(...) is None`` case);
* bound kernels: ``fn(lookup, binding, neg_skip=None)`` — ``binding`` is a
  name->value mapping covering the declared bound set;
* head kernels: ``fn(lookup, row, neg_skip=None)`` — ``row`` is unified
  against the rule head before any relation is touched, binding the head's
  variables; a mismatch returns nothing (DRedL's re-derivation check).
"""

from __future__ import annotations

from functools import cached_property
from time import perf_counter
from typing import Callable, Iterable, Iterator

from ..datalog.ast import (
    AggTerm,
    BodyItem,
    Constant,
    Eval,
    Literal,
    Rule,
    Term,
    Test,
    Variable,
)
from ..datalog.planning import CardinalityOracle, no_sizes, plan_body
from ..datalog.program import Program
from ..robustness import faults as _faults
from .grounding import Lookup, bind_pinned, instantiate, run_plan, unify_tuple

_KERNEL_NAME = "_kernel"

#: ``repro.engines.laddder.timeline.NEVER`` (importing it here is a cycle).
_NEVER = float("inf")


# ---------------------------------------------------------------------------
# code generation


class _Codegen:
    """Line buffer + closure environment for one generated function."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 1
        self.env: dict[str, object] = {}
        self._consts = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def const(self, value: object) -> str:
        """Bind ``value`` into the closure environment, return its name.

        Constants may be arbitrary hashable Python objects (lattice
        elements), so they travel via the environment rather than ``repr``.
        """
        name = f"_c{self._consts}"
        self._consts += 1
        self.env[name] = value
        return name

    def unify_row(self, terms) -> dict[str, str]:
        """Unify ``_row`` against ``terms`` or ``return None``: constants are
        equality-checked, first variable occurrences bind a slot, repeated
        ones are consistency-checked (aggregation slots are skipped).
        Returns ``variable name -> slot``."""
        slots: dict[str, str] = {}
        for i, term in enumerate(terms):
            if isinstance(term, Constant):
                self.emit(f"if _row[{i}] != {self.const(term.value)}: return None")
            elif not isinstance(term, Variable):
                continue
            elif term.name in slots:
                self.emit(f"if _row[{i}] != {slots[term.name]}: return None")
            else:
                slots[term.name] = f"_v{len(slots)}"
                self.emit(f"{slots[term.name]} = _row[{i}]")
        return slots

    def build(self, name: str, args: str, filename: str) -> Callable:
        """``exec`` the buffered lines as ``def name(args)`` over the closure
        environment; the source rides along as ``__kernel_source__``."""
        body = self.lines or ["    pass"]
        source = f"def {name}({args}):\n" + "\n".join(body)
        namespace = dict(self.env)
        exec(compile(source, filename, "exec"), namespace)
        # Popped, not read: a function that sits in its own globals is a
        # reference cycle, and an evicted kernel would wait for the collector.
        fn = namespace.pop(name)
        fn.__kernel_source__ = source
        return fn


def _tuple_expr(parts: list[str]) -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


class _KernelBuilder:
    """Lowers one planned body into a specialized generator function.

    The bound-column set of every probe is known at compile time, so the
    kernel never goes through
    :meth:`~repro.engines.relation.ColumnIndexed.matching`: it hoists the
    ``cols`` index dictionaries into its prologue and probes them with
    inline keys; zero-bound scans read the cached ``scan_rows()`` snapshot;
    and the innermost enumeration is emitted as one batched list
    comprehension (see ``batch_tail``) instead of a per-row loop.
    """

    def __init__(
        self, program: Program, rule: Rule, plan: list[BodyItem], metrics=None
    ):
        self.program = program
        self.rule = rule
        self.plan = plan
        self.g = _Codegen()
        self._slots: dict[str, str] = {}
        self.bound: set[str] = set()
        self._temps = 0
        #: Probe counters are compiled in only while collection is on —
        #: the increments sit in the innermost loops.
        self.counted = (
            self.g.const(metrics)
            if metrics is not None and metrics.active
            else None
        )
        #: ``(relation local, cols) -> hoisted index local`` plus the hoist
        #: lines themselves, spliced after the relation hoists.
        self._index_refs: dict[tuple[str, tuple[int, ...]], str] = {}
        self.index_lines: list[str] = []

    def slot(self, var_name: str) -> str:
        name = self._slots.get(var_name)
        if name is None:
            name = self._slots[var_name] = f"_v{len(self._slots)}"
        return name

    def _temp(self) -> str:
        name = f"_t{self._temps}"
        self._temps += 1
        return name

    def term_expr(self, term: Term) -> str:
        """A bound term as an expression (constant or bound variable)."""
        if isinstance(term, Constant):
            return self.g.const(term.value)
        return self.slot(term.name)

    # -- prologues ---------------------------------------------------------

    def hoist_relations(self, skip_first: bool) -> dict[str, str]:
        """``_rN = lookup('pred')`` once per predicate the plan touches."""
        rels: dict[str, str] = {}
        items = self.plan[1:] if skip_first else self.plan
        for item in items:
            if isinstance(item, Literal) and item.pred not in rels:
                name = f"_r{len(rels)}"
                rels[item.pred] = name
                self.g.emit(f"{name} = lookup({item.pred!r})")
        return rels

    def pinned_prologue(self, literal: Literal) -> None:
        """Unify ``_row`` against the pinned occurrence; mismatch => return.

        Mirrors :func:`repro.engines.grounding.bind_pinned` exactly:
        constants are equality-checked, first variable occurrences bind,
        repeated occurrences are consistency-checked.
        """
        g = self.g
        for i, term in enumerate(literal.atom.args):
            if isinstance(term, Constant):
                g.emit(f"if _row[{i}] != {g.const(term.value)}: return")
            elif term.name in self.bound:
                g.emit(f"if _row[{i}] != {self.slot(term.name)}: return")
            else:
                g.emit(f"{self.slot(term.name)} = _row[{i}]")
                self.bound.add(term.name)

    def bound_prologue(self, names: Iterable[str]) -> None:
        """Unpack the declared bound set from the ``_binding`` mapping."""
        for name in sorted(names):
            self.g.emit(f"{self.slot(name)} = _binding[{name!r}]")
            self.bound.add(name)

    # -- body items --------------------------------------------------------

    def _analyze(self, item: Literal):
        """Split one positive literal's argument positions by binding state:
        ``(bound position, expression)`` pairs, first-occurrence frees, and
        repeated-free filter positions."""
        bound_exprs: list[tuple[int, str]] = []
        frees: list[tuple[int, str]] = []
        repeats: list[tuple[int, str]] = []
        seen_here: set[str] = set()
        for i, term in enumerate(item.atom.args):
            if isinstance(term, Constant):
                bound_exprs.append((i, self.g.const(term.value)))
            elif term.name in self.bound:
                bound_exprs.append((i, self.slot(term.name)))
            elif term.name in seen_here:
                # Repeated free variable within one atom: the first
                # occurrence binds, later ones filter (unify_tuple).
                repeats.append((i, term.name))
            else:
                seen_here.add(term.name)
                frees.append((i, term.name))
        return bound_exprs, frees, repeats

    def index_ref(self, rel: str, cols: tuple[int, ...]) -> str:
        """Hoist the ``cols`` index dict into the prologue, once per pair.

        The built-index hit goes straight at ``_indexes`` (kernels are
        called once per delta, so the prologue itself is hot); only the
        first probe after an index-dropping event pays ``index_for``.
        """
        name = self._index_refs.get((rel, cols))
        if name is None:
            name = f"_i{len(self._index_refs)}"
            self._index_refs[(rel, cols)] = name
            self.index_lines.append(
                f"    {name} = {rel}._indexes.get({cols!r})"
            )
            self.index_lines.append(
                f"    if {name} is None: {name} = {rel}.index_for({cols!r})"
            )
        return name

    def _probe(self, rel: str, bound_exprs: list[tuple[int, str]]) -> str:
        """Emit one probe of ``rel`` on its bound columns and return the
        local holding the rows it found: the cached ``scan_rows()`` snapshot
        for a zero-bound scan, else the *live* index bucket, with the
        indent left inside the bucket-hit guard."""
        g = self.g
        counted = self.counted
        src = self._temp()
        if not bound_exprs:
            g.emit(f"{src} = {rel}.scan_rows()")
        else:
            index = self.index_ref(rel, tuple(i for i, _ in bound_exprs))
            # The value tuple :mod:`~repro.engines.relation` keys on (built
            # indexes travel in checkpoints, so the format is persistent).
            key = _tuple_expr([expr for _, expr in bound_exprs])
            g.emit(f"{src} = {index}.get({key})")
        if counted is not None:
            g.emit(f"{counted}.join_probes += 1")
        if bound_exprs:
            g.emit(f"if {src} is not None:")
            g.indent += 1
        if counted is not None:
            g.emit(f"{counted}.join_probe_rows += len({src})")
        return src

    def positive(self, item: Literal, rels: dict[str, str]) -> None:
        g = self.g
        bound_exprs, frees, repeats = self._analyze(item)
        rel = rels[item.pred]
        if not frees and not repeats:
            # Fully bound probe: plain membership, no enumeration.
            g.emit(f"if {_tuple_expr([e for _, e in bound_exprs])} in {rel}:")
            g.indent += 1
            return
        src = self._probe(rel, bound_exprs)
        if bound_exprs:
            # Snapshot the live bucket: downstream consumers mutate the
            # relation while the generator is suspended mid-iteration.
            src = f"tuple({src})"
        row = self._temp()
        g.emit(f"for {row} in {src}:")
        g.indent += 1
        for i, name in frees:
            g.emit(f"{self.slot(name)} = {row}[{i}]")
            self.bound.add(name)
        for i, name in repeats:
            g.emit(f"if {row}[{i}] != {self.slot(name)}: continue")

    def negated(self, item: Literal, rels: dict[str, str]) -> None:
        # The planner guarantees every argument is bound here.
        g = self.g
        parts = [self.term_expr(t) for t in item.atom.args]
        row = self._temp()
        g.emit(f"{row} = {_tuple_expr(parts)}")
        g.emit(
            f"if (neg_skip is not None and neg_skip == ({item.pred!r}, {row})) "
            f"or {row} not in {rels[item.pred]}:"
        )
        g.indent += 1

    def _callable(self, registry: dict, name: str, kind: str) -> str:
        fn = registry.get(name)
        if fn is not None:
            return self.g.const(fn)
        # Unknown at compile time: defer the KeyError to kernel run time,
        # matching the interpreter's failure point.
        reg = self.g.const(registry)
        return f"{reg}[{name!r}]"

    def eval_item(self, item: Eval) -> None:
        g = self.g
        fn = self._callable(self.program.functions, item.fn, "function")
        call = f"{fn}({', '.join(self.term_expr(a) for a in item.args)})"
        if item.var.name in self.bound:
            g.emit(f"if {call} == {self.slot(item.var.name)}:")
            g.indent += 1
        else:
            g.emit(f"{self.slot(item.var.name)} = {call}")
            self.bound.add(item.var.name)

    def test_item(self, item: Test) -> None:
        fn = self._callable(self.program.tests, item.fn, "test")
        self.g.emit(f"if {fn}({', '.join(self.term_expr(a) for a in item.args)}):")
        self.g.indent += 1

    def lower_body(
        self, rels: dict[str, str], start: int, stop: int | None = None
    ) -> None:
        for item in self.plan[start:stop]:
            if isinstance(item, Literal):
                if item.negated:
                    self.negated(item, rels)
                else:
                    self.positive(item, rels)
            elif isinstance(item, Eval):
                self.eval_item(item)
            elif isinstance(item, Test):
                self.test_item(item)
            else:  # pragma: no cover - planner admits only these
                raise TypeError(f"unknown body item {item!r}")

    # -- emit tails --------------------------------------------------------

    def emit_expr(self, emit: str, spec, var_order: tuple[str, ...]) -> str:
        """The yielded value as an expression over the current slots."""
        if emit == "head":
            return _tuple_expr([self.term_expr(t) for t in self.rule.head.args])
        if emit == "regs":
            return _tuple_expr([self.slot(n) for n in var_order])
        if emit == "keyvalue":
            key_parts: list[str] = []
            value = None
            for i, term in enumerate(spec.head.args):
                if i == spec.agg_pos:
                    value = self.slot(term.var.name)
                else:
                    key_parts.append(self.term_expr(term))
            return f"({_tuple_expr(key_parts)}, {value})"
        if emit == "exists":
            return "True"
        raise ValueError(f"unknown emit mode {emit!r}")  # pragma: no cover

    def emit_tail(self, emit: str, spec, var_order: tuple[str, ...]) -> None:
        verb = "return" if emit == "exists" else "yield"
        self.g.emit(f"{verb} {self.emit_expr(emit, spec, var_order)}")

    def batch_tail(
        self,
        item: Literal,
        rels: dict[str, str],
        emit: str,
        spec,
        var_order: tuple[str, ...],
    ) -> bool:
        """Lower the innermost positive literal as one batched emission.

        Instead of loop / unpack / yield per row, the kernel materializes
        ``_batch = [<emit expr> for row in <source> if <filters>]`` and
        ``yield from``s it — the enumeration runs at comprehension speed and,
        because the whole batch is built before control returns to the
        consumer, the live index bucket can be iterated without a snapshot
        copy.  Returns False (caller falls back to the per-row path) when
        the literal is fully bound, as there is nothing to enumerate.
        """
        g = self.g
        bound_exprs, frees, repeats = self._analyze(item)
        if not frees and not repeats:
            return False
        row = self._temp()
        for i, name in frees:
            self._slots[name] = f"{row}[{i}]"
            self.bound.add(name)
        conds = [f"{row}[{i}] == {self._slots[name]}" for i, name in repeats]
        expr = self.emit_expr(emit, spec, var_order)
        suffix = "".join(f" if {cond}" for cond in conds)
        src = self._probe(rels[item.pred], bound_exprs)
        g.emit(f"_batch = [{expr} for {row} in {src}{suffix}]")
        if self.counted is not None:
            g.emit(f"{self.counted}.batch_rows_emitted += len(_batch)")
        g.emit("yield from _batch")
        return True


def compile_kernel(
    program: Program,
    rule: Rule,
    plan: list[BodyItem],
    *,
    mode: str = "scan",
    bound: frozenset[str] = frozenset(),
    emit: str = "head",
    spec=None,
    var_order: tuple[str, ...] = (),
    metrics=None,
) -> Callable:
    """Generate and ``exec`` one specialized kernel for ``plan``."""
    builder = _KernelBuilder(program, rule, plan, metrics=metrics)
    args = ["lookup"]
    if mode == "pinned":
        args.append("_row")
        builder.pinned_prologue(plan[0])
    elif mode == "bound":
        args.append("_binding")
        builder.bound_prologue(bound)
    elif mode == "head":
        args.append("_row")
        builder._slots = builder.g.unify_row(rule.head.args)
        builder.bound.update(builder._slots)
    # Relation hoists belong above the prologue lines in execution order,
    # but the prologue emits straight-line code only, so ordering within the
    # preamble is irrelevant; keep hoists after to reuse the line buffer.
    start = 1 if mode == "pinned" else 0
    prologue = builder.g.lines
    builder.g.lines = []
    rels = builder.hoist_relations(skip_first=mode == "pinned")
    hoists = builder.g.lines
    builder.g.lines = []
    # The innermost positive literal fuses with the emit into one batched
    # comprehension; ``exists`` keeps the per-row path (callers rely on its
    # lazy short-circuit).
    batched = False
    if (
        emit in ("head", "regs", "keyvalue")
        and len(plan) > start
        and isinstance(plan[-1], Literal)
        and not plan[-1].negated
    ):
        builder.lower_body(rels, start, stop=len(plan) - 1)
        batched = builder.batch_tail(plan[-1], rels, emit, spec, var_order)
        if not batched:
            builder.positive(plan[-1], rels)
    else:
        builder.lower_body(rels, start)
    if not batched:
        builder.emit_tail(emit, spec, var_order)
    body = builder.g.lines
    if emit == "exists":
        body.append("    return False")
    # Final line order: relation hoists, hoisted index dicts (which read
    # the relation locals), the mode prologue, then the lowered body.  A
    # head prologue goes first: a row that does not unify touches nothing.
    preamble = hoists + builder.index_lines
    if mode == "head":
        preamble, prologue = prologue, preamble
    builder.g.lines = preamble + prologue + body
    return builder.g.build(
        _KERNEL_NAME, ", ".join(args) + ", neg_skip=None",
        f"<kernel:{rule.head.pred}>",
    )


# ---------------------------------------------------------------------------
# interpreter-backed kernels (the reference oracle)


def interpret_kernel(
    program: Program,
    rule: Rule,
    plan: list[BodyItem],
    *,
    mode: str = "scan",
    emit: str = "head",
    spec=None,
    var_order: tuple[str, ...] = (),
) -> Callable:
    """A ``run_plan``-backed kernel with the compiled call signature."""
    head = rule.head
    if emit == "head":
        def project(binding):
            return instantiate(head, binding)
    elif emit == "regs":
        def project(binding):
            return tuple(binding[name] for name in var_order)
    elif emit == "keyvalue":
        def project(binding):
            return spec.key_and_value(binding)
    elif emit == "exists":
        def project(binding):
            return True
    else:  # pragma: no cover
        raise ValueError(f"unknown emit mode {emit!r}")

    if mode == "scan":
        def kernel(lookup, neg_skip=None):
            for binding in run_plan(plan, program, lookup, {}, 0, neg_skip):
                yield project(binding)
    elif mode == "pinned":
        literal = plan[0]

        def kernel(lookup, _row, neg_skip=None):
            binding = bind_pinned(literal, _row)
            if binding is None:
                return
            for theta in run_plan(plan, program, lookup, binding, 1, neg_skip):
                yield project(theta)
    elif mode == "bound":
        def kernel(lookup, _binding, neg_skip=None):
            for theta in run_plan(plan, program, lookup, dict(_binding), 0, neg_skip):
                yield project(theta)
    elif mode == "head":
        def kernel(lookup, _row, neg_skip=None):
            binding: dict = {}
            if unify_tuple(head, _row, binding) is not None:
                for theta in run_plan(plan, program, lookup, binding, 0, neg_skip):
                    yield project(theta)
    else:  # pragma: no cover
        raise ValueError(f"unknown kernel mode {mode!r}")
    if emit == "exists":
        witnesses = kernel
        return lambda *a, neg_skip=None: next(witnesses(*a, neg_skip=neg_skip), False)
    return kernel


# ---------------------------------------------------------------------------
# rule shapes (Laddder): canonical register order + per-literal grounders


class RuleShape:
    """Positional view of one rule over its canonical register tuple.

    ``var_order`` is the sorted tuple of body-variable names; a ``regs``
    kernel yields valuations in exactly this order, so ``(rule, regs)`` is a
    canonical substitution key (the compiled analogue of
    ``tuple(sorted(theta.items()))``).  ``head_of(regs)`` instantiates the
    head; ``literals`` holds ``(negated, pred, grounder)`` per relational
    body atom, where ``grounder(regs)`` builds that atom's ground row.

    Laddder's per-substitution work is fixed per rule, so it is generated
    here once, as straight-line code:

    ``firing(regs, relations, pred, row, old_first, new_first)``
        Laddder's firing timestamps ``(t_old, t_new)`` of the substitution
        in the worlds before and after ``(pred, row)``'s first existence
        moved ``old_first -> new_first``.  Every occurrence grounding to the
        changed row uses its old/new first-existence respectively;
        everything else reads current state.  A ``NEVER`` body atom makes
        the whole firing ``NEVER`` in that world; a negated atom counts as
        existing at 0 while the atom is absent.  Eval/Test items are
        timeless (timestamp 0 <= any max) and do not appear.  Reads go at
        ``relations.get``: a predicate with no relation yet simply has no
        tuples, and a pure probe must not force one into existence.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.var_order = tuple(
            sorted(v.name for v in rule.body_variables() | rule.head_variables())
        )
        self._index = {name: i for i, name in enumerate(self.var_order)}

    # Members are generated on first use, once.

    def _row_expr(self, terms, g: _Codegen) -> str:
        """``terms`` grounded from the register tuple ``_s``, as source."""
        parts = []
        for term in terms:
            if isinstance(term, Constant):
                parts.append(g.const(term.value))
            elif isinstance(term, AggTerm):  # pragma: no cover - engine guard
                raise ValueError("cannot project an aggregation slot")
            else:
                parts.append(f"_s[{self._index[term.name]}]")
        return _tuple_expr(parts)

    def _projector(self, terms) -> Callable[[tuple], tuple]:
        g = _Codegen()
        return eval(f"lambda _s: {self._row_expr(terms, g)}", g.env)

    @cached_property
    def head_of(self) -> Callable[[tuple], tuple]:
        return self._projector(self.rule.head.args)

    @cached_property
    def literals(self) -> tuple[tuple[bool, str, Callable[[tuple], tuple]], ...]:
        return tuple(
            (lit.negated, lit.pred, self._projector(lit.atom.args))
            for lit in self.rule.body_literals()
        )

    @cached_property
    def firing(self) -> Callable:
        g = _Codegen()
        g.env["NEVER"] = _NEVER
        g.emit("_to = _tn = -1.0")
        for lit in self.rule.body_literals():
            g.emit(f"_g = {self._row_expr(lit.atom.args, g)}")
            g.emit(f"if _pred == {lit.pred!r} and _g == _row:")
            if lit.negated:
                g.emit("    _fo = 0.0 if _old == NEVER else NEVER")
                g.emit("    _fn = 0.0 if _new == NEVER else NEVER")
            else:
                g.emit("    _fo = _old; _fn = _new")
            g.emit("else:")
            g.emit(f"    _r = _rels.get({lit.pred!r})")
            first = "NEVER if _r is None else _r._first.get(_g, NEVER)"
            if lit.negated:
                g.emit(f"    _fo = _fn = 0.0 if ({first}) == NEVER else NEVER")
            else:
                g.emit(f"    _fo = _fn = {first}")
            g.emit("if _fo > _to: _to = _fo")
            g.emit("if _fn > _tn: _tn = _fn")
        g.emit("return (_to + 1, _tn + 1)  # NEVER + 1 is NEVER")
        return g.build(
            "_firing", "_s, _rels, _pred, _row, _old, _new",
            f"<firing:{self.rule.head.pred}>",
        )


# ---------------------------------------------------------------------------
# aggregation extractors: pinned collecting-literal row -> (key, value)


def compile_extractor(spec, *, interpret: bool = False) -> Callable:
    """``row -> (group key, aggregand value) | None`` for one AggSpec.

    The hot path of every engine's aggregation advance binds a collecting
    tuple against the single body literal and splits it per the head; this
    fuses both steps.  ``None`` signals a pinned-unification mismatch
    (constant or repeated-variable conflict in the collecting literal).
    """
    literal = spec.rule.body[0]
    if interpret:
        def extract(row):
            binding = bind_pinned(literal, row)
            if binding is None:
                return None
            return spec.key_and_value(binding)

        return extract

    g = _Codegen()
    slots = g.unify_row(literal.atom.args)
    key_parts: list[str] = []
    value = None
    for i, term in enumerate(spec.head.args):
        if i == spec.agg_pos:
            value = slots[term.var.name]
        elif isinstance(term, Constant):
            key_parts.append(g.const(term.value))
        else:
            key_parts.append(slots[term.name])
    g.emit(f"return ({_tuple_expr(key_parts)}, {value})")
    return g.build("_extract", "_row", f"<extractor:{spec.pred}>")


# ---------------------------------------------------------------------------
# the cache


class RuleKernel:
    """One cached kernel: the callable plus what it was built from."""

    __slots__ = ("fn", "plan", "rule", "mode", "emit", "compiled")

    def __init__(self, fn, plan, rule, mode, emit, compiled):
        self.fn = fn
        self.plan = plan
        self.rule = rule
        self.mode = mode
        self.emit = emit
        self.compiled = compiled

    def __call__(self, *args, **kwargs) -> Iterator:
        return self.fn(*args, **kwargs)


class KernelCache:
    """Per-solver cache of compiled kernels, keyed by
    ``(rule, pinned, bound-set, emit mode, head, sized)``.

    All four engines share one instance (created in ``Solver.__init__``), so
    planning/compilation happens once per distinct key for the lifetime of
    the solver — never inside a fixpoint loop.  ``sized`` says whether the
    plan was costed against an oracle's sizes: building a sized kernel whose
    greedy twin is cached counts as a re-plan (``replans_triggered``).
    """

    def __init__(self, program: Program, metrics=None, interpret: bool = False):
        self.program = program
        self.metrics = metrics
        self.interpret = interpret
        self._kernels: dict[tuple, RuleKernel] = {}
        self._shapes: dict[int, RuleShape] = {}
        self._extractors: dict[int, Callable] = {}

    def kernel(
        self,
        rule: Rule,
        *,
        pinned: int | None = None,
        bound: Iterable[str] = (),
        head: bool = False,
        emit: str = "head",
        oracle: CardinalityOracle = no_sizes,
        spec=None,
    ) -> RuleKernel:
        """Get or build the kernel for one (rule, pinned, bound, emit, head),
        planned against ``oracle``'s sizes (``no_sizes``: the greedy plan);
        a head kernel's bound set is the head's variables."""
        if head:
            bound = (v.name for v in rule.head_variables())
        bound_names = frozenset(bound)
        sized = oracle is not no_sizes
        key = (id(rule), pinned, bound_names, emit, head, sized)
        cached = self._kernels.get(key)
        metrics = self.metrics
        if cached is not None:
            if metrics is not None:
                metrics.plan_cache_hits += 1
            return cached
        started = perf_counter()
        if metrics is not None:
            metrics.plan_cache_misses += 1
        # Exception safety: nothing is registered until the build fully
        # succeeds, so a kernel that raises mid-stratum leaves the cache
        # exactly as it was and a retry re-plans from scratch.  The time
        # already spent is still metered.
        try:
            if _faults.ACTIVE is not None:
                _faults.fire("compile.build")
            initially_bound = {Variable(n) for n in bound_names} or None
            plan = plan_body(
                rule, pinned=pinned, initially_bound=initially_bound,
                oracle=oracle,
            )
            mode = (
                "pinned" if pinned is not None
                else "head" if head
                else ("bound" if bound_names else "scan")
            )
            var_order = ()
            if emit == "regs":
                var_order = self.shape(rule).var_order
            if self.interpret:
                fn = interpret_kernel(
                    self.program, rule, plan,
                    mode=mode, emit=emit, spec=spec, var_order=var_order,
                )
            else:
                fn = compile_kernel(
                    self.program, rule, plan,
                    mode=mode, bound=bound_names, emit=emit, spec=spec,
                    var_order=var_order, metrics=self.metrics,
                )
        except BaseException:
            if metrics is not None:
                metrics.compile_seconds += perf_counter() - started
            raise
        kernel = RuleKernel(fn, plan, rule, mode, emit, not self.interpret)
        self._kernels[key] = kernel
        if metrics is not None:
            metrics.rules_compiled += 1
            if sized and key[:-1] + (False,) in self._kernels:
                metrics.replans_triggered += 1
            metrics.compile_seconds += perf_counter() - started
        return kernel

    def shape(self, rule: Rule) -> RuleShape:
        shape = self._shapes.get(id(rule))
        if shape is None:
            shape = self._shapes[id(rule)] = RuleShape(rule)
        return shape

    def extractor(self, spec) -> Callable:
        fn = self._extractors.get(id(spec.rule))
        if fn is None:
            fn = compile_extractor(spec, interpret=self.interpret)
            self._extractors[id(spec.rule)] = fn
        return fn
