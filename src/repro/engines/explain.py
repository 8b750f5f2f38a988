"""Derivation explanations (provenance) for analysis results.

IDE clients don't just want *that* ``reach(proc)`` holds — they want to see
a derivation: which rule fired, on which premises, down to input facts.
:func:`explain` reconstructs one such derivation tree from any solved
solver by re-evaluating rules head-bound against the solver's exported
relations (the same technique as DRed's re-derivation check, turned into a
user-facing feature).

Nothing is recorded while solving (docs/PROVENANCE.md).  The tree is a
**minimum-height** one: a memoised bounded-provability check finds each
node's least height by iterative deepening, and the node is built from a
grounding whose positive premises are provable one level lower.  Heights
strictly decrease along every such descent, so the tree has no cycles and
needs no candidate enumeration; it reads the same on every engine and
after any number of incremental epochs.  The recursion through aggregate
tuples, which expand into all of their aggregands, is depth-bounded and
cycle-safe: a tuple already on the current path is reported as a
``(cycle)`` leaf rather than recursed into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from ..datalog.ast import Constant, Literal, Rule, Variable
from ..datalog.errors import SolverError
from ..datalog.planning import plan_body
from .base import Solver
from .grounding import run_plan, term_value
from .relation import ColumnIndexed


@dataclass
class Derivation:
    """One node of a derivation tree."""

    pred: str
    row: tuple
    #: "fact" (EDB), "rule" (with the rule and premises), "negation" (a
    #: negated body literal, satisfied by the atom's absence), "aggregate"
    #: (value assembled from collecting premises), or "cycle"/"depth".
    kind: str
    rule: Rule | None = None
    premises: list["Derivation"] = field(default_factory=list)

    def format(self, indent: int = 0) -> str:
        pad = "  " * indent
        label = f"{self.pred}{self.row}"
        if self.kind == "fact":
            lines = [f"{pad}{label}   [input fact]"]
        elif self.kind == "negation":
            lines = [f"{pad}{label}   [absent, as required]"]
        elif self.kind == "cycle":
            lines = [f"{pad}{label}   [via cycle]"]
        elif self.kind == "depth":
            lines = [f"{pad}{label}   [depth limit]"]
        elif self.kind == "aggregate":
            lines = [f"{pad}{label}   [aggregate of {len(self.premises)} values]"]
        else:
            lines = [f"{pad}{label}   [by {self.rule!r}]"]
        for premise in self.premises:
            lines.append(premise.format(indent + 1))
        return "\n".join(lines)

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)

    def to_dict(self, max_nodes: int | None = None) -> dict:
        """JSON-safe rendering (committed schema: docs/explain_schema.json).

        Row values render through the snapshot layer's ``stable_repr`` —
        the same form the service ``query`` op returns, so clients can
        round-trip rows between ops.  ``max_nodes`` bounds the total node
        count (pre-order); subtrees cut by the bound are summarized with a
        ``premises_omitted`` count on their parent.
        """
        from ..service.snapshot import stable_repr

        counter = [0]

        def render(node: "Derivation") -> dict:
            counter[0] += 1
            entry: dict = {
                "pred": node.pred,
                "row": [stable_repr(value) for value in node.row],
                "kind": node.kind,
            }
            if node.rule is not None:
                entry["rule"] = repr(node.rule)
            premises = []
            omitted = 0
            for premise in node.premises:
                if max_nodes is not None and counter[0] >= max_nodes:
                    omitted += 1
                    continue
                premises.append(render(premise))
            entry["premises"] = premises
            if omitted:
                entry["premises_omitted"] = omitted
            return entry

        return render(self)


def explain(
    solver: Solver, pred: str, row: tuple, max_depth: int = 12
) -> Derivation:
    """Reconstruct a minimum-height derivation of ``row`` in ``pred`` from
    the exported relations of a solved solver.  Raises :class:`SolverError`
    if the tuple is not present."""
    solver._require_solved()
    metrics = solver.metrics
    metrics.provenance_explains += 1
    started = perf_counter()
    try:
        row = tuple(row)
        if row not in solver.relation(pred):
            raise SolverError(f"{pred}{row} is not derived")
        return _Search(solver).tree(pred, row, max_depth, set())
    finally:
        metrics.provenance_seconds += perf_counter() - started


class _Search:
    """Minimum-height proof search over one solver's exported views.

    ``provable(pred, row, d)`` holds when the tuple has a derivation of
    height at most ``d``: an input fact or an aggregate tuple at any
    ``d >= 1`` (aggregates are leaves here; :meth:`tree` expands them into
    their aggregands), a derived tuple when some grounding of one of its
    rules has every positive premise provable at ``d - 1``.  Each tuple's
    groundings are enumerated once, and what a check learns is kept as two
    bounds (least height known provable, greatest known not), so iterative
    deepening never re-settles a tuple.
    """

    def __init__(self, solver: Solver):
        self.solver = solver
        self.lookup = _lookup(solver)
        self.aggregates: dict[str, Rule] = {
            rule.head.pred: rule
            for rule in solver.program.rules
            if rule.is_aggregation
        }
        self._plans: dict[int, list] = {}
        self._groundings: dict[tuple, list] = {}
        self._proved: dict[tuple, int] = {}
        self._refuted: dict[tuple, int] = {}

    def groundings(self, pred: str, row: tuple) -> list:
        """``(rule, literals)`` per grounding of a rule deriving the tuple,
        ``literals`` being ``(pred, row, negated)`` in body order."""
        key = (pred, row)
        found = self._groundings.get(key)
        if found is None:
            found = self._groundings[key] = list(self._ground(pred, row))
        return found

    def _ground(self, pred: str, row: tuple):
        program = self.solver.program
        for rule in program.rules_for(pred):
            binding = _bind_head(rule, row)
            if binding is None:
                continue
            plan = self._plans.get(id(rule))
            if plan is None:
                plan = self._plans[id(rule)] = plan_body(
                    rule, initially_bound=rule.head_variables()
                )
            for theta in run_plan(plan, program, self.lookup, dict(binding)):
                yield rule, tuple(
                    (
                        item.pred,
                        tuple(term_value(t, theta) for t in item.atom.args),
                        item.negated,
                    )
                    for item in rule.body
                    if isinstance(item, Literal)
                )

    def supports(self, literals, d: int) -> bool:
        """Does this grounding give its head a derivation of height at most
        ``d >= 1``?  Every premise, negated ones included, is a level."""
        return not literals or d >= 2 and all(
            negated or self.provable(pred, row, d - 1)
            for pred, row, negated in literals
        )

    def provable(self, pred: str, row: tuple, d: int) -> bool:
        if d < 1:
            return False
        if pred in self.solver.edb or pred in self.aggregates:
            return True
        key = (pred, row)
        if self._proved.get(key, d + 1) <= d:
            return True
        if self._refuted.get(key, 0) >= d:
            return False
        for _rule, literals in self.groundings(pred, row):
            if self.supports(literals, d):
                self._proved[key] = min(d, self._proved.get(key, d))
                return True
        self._refuted[key] = max(d, self._refuted.get(key, d))
        return False

    def height(self, pred: str, row: tuple, bound: int) -> int | None:
        """The tuple's minimum height if it is at most ``bound``."""
        for d in range(self._refuted.get((pred, row), 0) + 1, bound + 1):
            if self.provable(pred, row, d):
                return d
        return None

    def tree(self, pred: str, row: tuple, budget: int, path: set) -> Derivation:
        """A derivation whose every node sits one level above its premises'
        minimum heights; ``budget`` levels are expanded below this node."""
        if pred in self.solver.edb:
            return Derivation(pred, row, "fact")
        key = (pred, row)
        if key in path:
            return Derivation(pred, row, "cycle")
        if budget <= 0:
            return Derivation(pred, row, "depth")
        path.add(key)
        try:
            agg_rule = self.aggregates.get(pred)
            if agg_rule is not None:
                return self._aggregate_tree(pred, row, agg_rule, budget, path)
            # With no derivation within the budget, expand the first
            # grounding greedily down to the bound instead.
            height = self.height(pred, row, budget + 1)
            for rule, literals in self.groundings(pred, row):
                if height is None or self.supports(literals, height):
                    return Derivation(pred, row, "rule", rule=rule, premises=[
                        Derivation(f"!{p}", r, "negation") if negated
                        else self.tree(p, r, budget - 1, path)
                        for p, r, negated in literals
                    ])
            # Present in the exported view but not re-derivable from
            # exports alone (e.g. derived from pruned intermediates).
            return Derivation(pred, row, "depth")
        finally:
            path.discard(key)

    def _aggregate_tree(self, pred, row, rule, budget, path) -> Derivation:
        from .aggspec import AggSpec

        solver = self.solver
        spec = AggSpec.compile(rule, solver.program)
        key, _value = spec.split_tuple(row)
        literal: Literal = spec.plan[0]
        premises = []
        for theta in run_plan(spec.plan, solver.program, self.lookup, {}):
            if spec.key_and_value(theta)[0] != key:
                continue
            grounded = tuple(term_value(t, theta) for t in literal.atom.args)
            premises.append(self.tree(literal.pred, grounded, budget - 1, path))
        return Derivation(pred, row, "aggregate", rule=rule, premises=premises)


class _ExportView(ColumnIndexed):
    """Adapter exposing exported relations with the matching() protocol.

    A frozen :class:`ColumnIndexed` population: lazy per-column-subset hash
    indexes are built on first probe and live for the view's lifetime
    (views never mutate), so repeated premise probes during a large-tree
    reconstruction are dict lookups instead of full-relation scans.
    """

    __slots__ = ("_rows", "arity", "_indexes", "metrics", "_scan_cache")

    def __init__(self, solver, pred):
        self._rows = solver.relation(pred)
        self.arity = solver.arities.get(pred, 0)
        self._indexes = {}
        self.metrics = solver._store_metrics()
        self._scan_cache = None

    def _items(self):
        return self._rows

    def __contains__(self, row):
        return row in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


def _lookup(solver):
    cache: dict[str, _ExportView] = {}

    def get(pred: str) -> _ExportView:
        view = cache.get(pred)
        if view is None:
            view = cache[pred] = _ExportView(solver, pred)
        return view

    return get


def _bind_head(rule: Rule, row: tuple):
    binding: dict = {}
    for term, value in zip(rule.head.args, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif isinstance(term, Variable):
            if binding.get(term.name, value) != value:
                return None
            binding[term.name] = value
    return binding
