"""Derivation explanations (provenance) for analysis results.

IDE clients don't just want *that* ``reach(proc)`` holds — they want to see
a derivation: which rule fired, on which premises, down to input facts.
:func:`explain` reconstructs one such derivation tree from any solved
solver by re-evaluating rules head-bound against the solver's exported
relations (the same technique as DRed's re-derivation check, turned into a
user-facing feature).

With provenance capture enabled (``SolverConfig.provenance``,
docs/PROVENANCE.md), the search is **height
guided**: every derived tuple carries a ``(rule_id, height)`` annotation
recorded at emit time, so reconstruction tries the annotated rule first
and accepts the first grounding whose positive premises all precede the
node on the insertion clock.  Descent along strictly decreasing heights is
well-founded — no candidate enumeration, no cycle backtracking — making
proof search linear in the size of the returned tree.  Annotations are
hints, not ground truth: every accepted grounding is re-verified against
the exported views, and a node whose hint does not pan out (incremental
epochs can reorder the clock) falls back to the full search below.

The fallback search is depth-bounded and cycle-safe: a premise already on
the current path is reported as a ``(cycle)`` leaf rather than recursed
into — for inflationary fixpoints a non-cyclic derivation always exists,
but the first rule found may be the recursive one.
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
    """Reconstruct one derivation of ``row`` in ``pred`` from the exported
    relations of a solved solver.  Raises :class:`SolverError` if the tuple
    is not present."""
    solver._require_solved()
    metrics = solver.metrics
    metrics.provenance_explains += 1
    started = perf_counter()
    try:
        row = tuple(row)
        if row not in solver.relation(pred):
            raise SolverError(f"{pred}{row} is not derived")
        return _explain(
            solver, _lookup(solver), pred, row, path=set(), depth=max_depth
        )
    finally:
        metrics.provenance_seconds += perf_counter() - started


def _explain(solver, lookup, pred, row, path, depth) -> Derivation:
    if pred in solver.edb:
        return Derivation(pred, row, "fact")
    if (pred, row) in path:
        return Derivation(pred, row, "cycle")
    if depth <= 0:
        return Derivation(pred, row, "depth")
    path = path | {(pred, row)}

    agg_rule = solver._aggregation_rule(pred)
    if agg_rule is not None:
        return _explain_aggregate(solver, lookup, pred, row, agg_rule, path, depth)

    prov = getattr(solver, "provenance", None)
    rules = solver.program.rules_for(pred)
    annotation = prov.get(pred, row) if prov is not None else None
    if annotation is not None:
        rule_id, height = annotation
        hinted = prov.rule_for(rule_id)
        if hinted is not None and hinted.head.pred == pred:
            rules = [hinted] + [r for r in rules if r is not hinted]
        # Height-guided pass: accept the first grounding whose positive
        # premises all strictly precede this node on the insertion clock.
        # Heights then decrease along every recursion, so the descent is
        # well-founded and needs no candidate enumeration — the linear-in-
        # tree-size reconstruction of Zhao et al.
        for rule in rules:
            binding = _bind_head(rule, row)
            if binding is None:
                continue
            plan = plan_body(rule, initially_bound=rule.head_variables())
            for theta in run_plan(plan, solver.program, lookup, dict(binding)):
                if not _descends(solver, prov, rule, theta, height):
                    continue
                solver.metrics.provenance_hits += 1
                return Derivation(
                    pred, row, "rule", rule=rule,
                    premises=_premises(solver, lookup, rule, theta, path, depth),
                )
        # The clock got reordered for this node (incremental re-insertion);
        # annotations are hints, so fall through to the full search.
        solver.metrics.provenance_fallbacks += 1

    # Gather a few candidate derivations and prefer one without cycle
    # leaves: the first rule found is often the recursive one, but a
    # grounded (fact-rooted) derivation reads far better.
    fallback: Derivation | None = None
    candidates = 0
    for rule in rules:
        binding = _bind_head(rule, row)
        if binding is None:
            continue
        plan = plan_body(rule, initially_bound=rule.head_variables())
        for theta in run_plan(plan, solver.program, lookup, dict(binding)):
            candidate = Derivation(
                pred, row, "rule", rule=rule,
                premises=_premises(solver, lookup, rule, theta, path, depth),
            )
            if not _has_cycle(candidate):
                return candidate
            if fallback is None:
                fallback = candidate
            candidates += 1
            if candidates >= 8:
                return fallback
    if fallback is not None:
        return fallback
    # Present in the exported view but not re-derivable from exports alone
    # (e.g. derived from pruned intermediates): report it as opaque.
    return Derivation(pred, row, "depth")


def _premises(solver, lookup, rule, theta, path, depth) -> list[Derivation]:
    """Build the premise nodes for one grounded body substitution."""
    premises = []
    for item in rule.body:
        if isinstance(item, Literal) and not item.negated:
            grounded = tuple(term_value(t, theta) for t in item.atom.args)
            premises.append(
                _explain(solver, lookup, item.pred, grounded, path, depth - 1)
            )
        elif isinstance(item, Literal):
            grounded = tuple(term_value(t, theta) for t in item.atom.args)
            premises.append(
                Derivation(f"!{item.pred}", grounded, "negation")
            )
    return premises


def _descends(solver, prov, rule, theta, height) -> bool:
    """Do all positive premises of this grounding strictly precede the
    head on the insertion clock?  (EDB premises always do.)"""
    for item in rule.body:
        if not isinstance(item, Literal) or item.negated:
            continue
        if item.pred in solver.edb:
            continue
        grounded = tuple(term_value(t, theta) for t in item.atom.args)
        annotation = prov.get(item.pred, grounded)
        if annotation is None or annotation[1] >= height:
            return False
    return True


def _has_cycle(node: Derivation) -> bool:
    if node.kind == "cycle":
        return True
    return any(_has_cycle(p) for p in node.premises)


def _explain_aggregate(solver, lookup, pred, row, rule, path, depth) -> Derivation:
    from .aggspec import AggSpec

    spec = AggSpec.compile(rule, solver.program)
    key, _value = spec.split_tuple(row)
    premises = []
    for theta in run_plan(spec.plan, solver.program, lookup, {}):
        theta_key, value = spec.key_and_value(theta)
        if theta_key != key:
            continue
        literal: Literal = spec.plan[0]
        grounded = tuple(term_value(t, theta) for t in literal.atom.args)
        premises.append(
            _explain(solver, lookup, literal.pred, grounded, path, depth - 1)
        )
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
