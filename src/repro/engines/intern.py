"""Constant interning: dense integer handles for every constant a solver touches.

The columnar backend (``SolverConfig.backend``, see
:mod:`repro.engines.relation`) stores relation rows as tuples of dense
non-negative ints instead of raw Python values.  The mapping lives in a
per-solver :class:`InternTable`; everything *inside* the engine — joins,
timelines, aggregation groups, compiled kernels — then operates purely on
int tuples, and values are externalized only at the public boundaries
(``relation()``, ``facts()``, update stats, traces, explanations).

The trick that keeps the four engines untouched is *conjugation*: instead
of teaching the interpreter and kernels about the table, the solver's
private program copy is rewritten once at construction time
(:func:`intern_program`):

* every ``Constant(value)`` in a rule becomes ``Constant(intern(value))``,
* registered functions become ``intern ∘ f ∘ extern`` (args are handles,
  the result is a handle),
* registered tests become ``f ∘ extern`` (args are handles, result a bool),
* registered aggregators are wrapped in :class:`InternedAggregator`, whose
  ``combine``/``final``/``dominates`` conjugate through the table.

With that rewrite in place the whole grounding/compilation machinery is
already id-correct: patterns, unification, negation probes, aggregation
folds and budget keys all compare handles to handles.

Identity semantics
------------------

Handles are assigned by *type-aware* equality: the table key is
``(value.__class__, value)``, so ``1``, ``1.0`` and ``True`` — equal and
hash-equal in Python — receive distinct handles and externalize back to
exactly the object kind that was interned.  ``extern(intern(x)) == x`` and
``type(extern(intern(x))) is type(x)`` therefore hold for every hashable
``x`` (the property suite in ``tests/property/test_intern_roundtrip.py``
pins this down over all constant kinds the bundled analyses use).

Handle assignment is deterministic: first-touch order.  Two solvers built
from the same program that receive the same fact stream assign identical
handles, which is what lets checkpoints store the table as a plain value
list and restore it into a freshly constructed solver
(:meth:`InternTable.restore` verifies the program-constant prefix).
"""

from __future__ import annotations

import hashlib
import sys
from typing import TYPE_CHECKING, Callable, Iterable

from ..datalog.ast import Constant, Eval, Head, Literal, Atom, Rule, Test
from ..datalog.program import Program
from ..datalog.stratify import Component

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..lattices import Aggregator
    from ..metrics import SolverMetrics


def program_hash(program: Program) -> str:
    """Stable fingerprint of a program's rules (order-sensitive).

    Solvers capture this *before* interning rewrites their private copy, so
    the hash is backend-independent and checkpoints written under one
    backend still name the same source program as any other.
    """
    text = "\n".join(repr(rule) for rule in program.rules)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class InternTable:
    """A bijection between constants and dense non-negative ints.

    ``values[handle]`` is the externalization; ``_ids[(type, value)]`` the
    internalization.  Handles are list indices, so extern is an O(1) index
    and the table serializes as the plain ``values`` list.
    """

    __slots__ = ("_ids", "values", "metrics")

    def __init__(self, metrics: "SolverMetrics | None" = None):
        self._ids: dict[tuple, int] = {}
        self.values: list = []
        self.metrics = metrics

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value) -> int:
        """The handle for ``value``, assigning a fresh one on first touch."""
        key = (value.__class__, value)
        handle = self._ids.get(key)
        if handle is None:
            handle = len(self.values)
            self._ids[key] = handle
            self.values.append(value)
            if self.metrics is not None:
                self.metrics.interned_constants += 1
        return handle

    def extern(self, handle: int):
        """The value behind ``handle``."""
        return self.values[handle]

    def lookup_row(self, row: tuple) -> tuple | None:
        """Handle tuple for ``row`` without assigning new handles.

        Read-only queries (timelines, explanations) must not grow the
        table — a probe for a never-seen constant simply cannot match any
        stored tuple, so ``None`` is returned instead.
        """
        ids = self._ids
        out = []
        for value in row:
            handle = ids.get((value.__class__, value))
            if handle is None:
                return None
            out.append(handle)
        return tuple(out)

    def intern_row(self, row: tuple) -> tuple:
        intern = self.intern
        return tuple(intern(v) for v in row)

    def extern_row(self, row: tuple) -> tuple:
        values = self.values
        return tuple(values[i] for i in row)

    def table_bytes(self) -> int:
        """Approximate heap bytes of the table: both containers plus the
        canonical constant copies (each distinct constant counted once —
        the rows referencing it hold handles, not pointers to it)."""
        total = sys.getsizeof(self._ids) + sys.getsizeof(self.values)
        for value in self.values:
            total += sys.getsizeof(value)
        return total

    def dump(self) -> list:
        """The serializable state: the value list in handle order."""
        return list(self.values)

    def restore(self, values: Iterable) -> None:
        """Adopt a dumped value list into this (freshly built) table.

        The live table already holds the program's own constants — interned
        deterministically at construction — which must form a prefix of the
        dump (same program, same first-touch order).  The prefix is verified
        and the remainder re-interned in dump order, reproducing the saved
        handle assignment exactly.
        """
        values = list(values)
        mine = self.values
        if len(mine) > len(values):
            raise ValueError(
                f"intern table dump has {len(values)} values but the live "
                f"program already interned {len(mine)}"
            )
        for i, value in enumerate(mine):
            saved = values[i]
            if saved.__class__ is not value.__class__ or saved != value:
                raise ValueError(
                    f"intern table mismatch at handle {i}: "
                    f"saved {saved!r}, live {value!r}"
                )
        for value in values[len(mine):]:
            self.intern(value)
        if len(self.values) != len(values):  # duplicate in the dump tail
            raise ValueError("intern table dump contains duplicate values")


class InternedAggregator:
    """An :class:`~repro.lattices.Aggregator` conjugated through a table.

    Mirrors the full aggregator interface (``combine``/``combine_all``/
    ``dominates``/``strictly_advances``/``final`` plus the ``name``/
    ``lattice``/``direction`` attributes) so engines and specs cannot tell
    the difference; aggregands and results are handles.

    ``combine`` is memoized on the handle pair: aggregator laws require it
    to be a pure function of its two values, and handles are stable for the
    solver's lifetime, so each distinct lattice-join pair is computed (and
    conjugated through the table) exactly once.  The memo is bounded by the
    number of distinct value pairs the analysis ever joins — for the bundled
    lattices a few hundred entries even across long soaks.
    """

    __slots__ = ("base", "table", "_memo")

    def __init__(self, base: "Aggregator", table: InternTable):
        self.base = base
        self.table = table
        self._memo: dict[int, int] = {}

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def lattice(self):
        return self.base.lattice

    @property
    def direction(self) -> str:
        return self.base.direction

    def combine(self, a: int, b: int) -> int:
        # Handles are dense list indices far below 2**32, so the pair packs
        # into one int key (same layout as the packed index keys).
        key = (a << 32) | b
        out = self._memo.get(key)
        if out is None:
            table = self.table
            values = table.values
            out = table.intern(self.base.combine(values[a], values[b]))
            self._memo[key] = out
        return out

    def combine_all(self, handles: Iterable[int]) -> int:
        table = self.table
        values = table.values
        return table.intern(self.base.combine_all(values[h] for h in handles))

    def dominates(self, result: int, aggregand: int) -> bool:
        values = self.table.values
        return self.base.dominates(values[result], values[aggregand])

    def strictly_advances(self, old: int, new: int) -> bool:
        values = self.table.values
        return self.base.strictly_advances(values[old], values[new])

    def final(self, handles: Iterable[int]) -> int:
        table = self.table
        values = table.values
        return table.intern(self.base.final(values[h] for h in handles))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<InternedAggregator {self.base!r}>"


def _interned_function(fn: Callable, table: InternTable) -> Callable:
    def conjugated(*handles):
        values = table.values
        return table.intern(fn(*[values[h] for h in handles]))

    conjugated.__name__ = getattr(fn, "__name__", "function")
    return conjugated


def _interned_test(fn: Callable, table: InternTable) -> Callable:
    def conjugated(*handles):
        values = table.values
        return fn(*[values[h] for h in handles])

    conjugated.__name__ = getattr(fn, "__name__", "test")
    return conjugated


def _intern_term(term, table: InternTable):
    if isinstance(term, Constant):
        return Constant(table.intern(term.value))
    return term  # Variables and AggTerms carry no constants


def _intern_rule(rule: Rule, table: InternTable) -> Rule:
    """Rebuild ``rule`` with every Constant replaced by its handle.

    Returns the original object when the rule mentions no constants, so
    identity-keyed caches (kernels, shapes) stay warm for the common case.
    """
    changed = False
    head_args = []
    for term in rule.head.args:
        new = _intern_term(term, table)
        changed = changed or new is not term
        head_args.append(new)
    body = []
    for item in rule.body:
        if isinstance(item, Literal):
            args = [_intern_term(t, table) for t in item.atom.args]
            if any(n is not o for n, o in zip(args, item.atom.args)):
                changed = True
                item = Literal(
                    Atom(item.atom.pred, tuple(args), item.atom.span),
                    item.negated,
                )
        elif isinstance(item, Eval):
            args = [_intern_term(t, table) for t in item.args]
            if any(n is not o for n, o in zip(args, item.args)):
                changed = True
                item = Eval(item.var, item.fn, tuple(args), item.span)
        elif isinstance(item, Test):
            args = [_intern_term(t, table) for t in item.args]
            if any(n is not o for n, o in zip(args, item.args)):
                changed = True
                item = Test(item.fn, tuple(args), item.span)
        body.append(item)
    if not changed:
        return rule
    head = Head(rule.head.pred, tuple(head_args), rule.head.span)
    return Rule(head, tuple(body), rule.span)


def intern_program(
    program: Program, components: Iterable[Component], table: InternTable
) -> None:
    """Rewrite a solver's private program copy into handle space, in place.

    Rules containing constants are rebuilt (spans preserved) and the new
    objects substituted both in ``program.rules`` and in every component's
    rule list — engines key kernel caches by rule identity, so both views
    must agree on the one rewritten object.  Registries are conjugated
    through ``table`` as described in the module docstring.
    """
    remap: dict[int, Rule] = {}
    rules = []
    for rule in program.rules:
        new = _intern_rule(rule, table)
        if new is not rule:
            remap[id(rule)] = new
        rules.append(new)
    program.rules = rules
    if remap:
        for component in components:
            component.rules = [remap.get(id(r), r) for r in component.rules]
    program.functions = {
        name: _interned_function(fn, table)
        for name, fn in program.functions.items()
    }
    program.tests = {
        name: _interned_test(fn, table) for name, fn in program.tests.items()
    }
    program.aggregators = {
        name: InternedAggregator(agg, table)
        for name, agg in program.aggregators.items()
    }


__all__ = [
    "InternTable",
    "InternedAggregator",
    "intern_program",
    "program_hash",
]
