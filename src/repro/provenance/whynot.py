"""Why-not explanations: the failed-derivation frontier of an absent tuple.

Where :func:`repro.engines.explain.explain` answers "why does this tuple
hold?", :func:`whynot` answers "why doesn't it?" — for each rule that could
derive the tuple, find the longest satisfiable prefix of the rule's body
plan and report the first premise that cannot be satisfied, together with
a witness binding for the satisfied prefix.  The result reads as "this
rule almost fired: these premises hold, this one is missing".

The search reuses the solver's compiled body plans and exported views
(:class:`repro.engines.explain._ExportView`), so the frontier is computed
against exactly the state a client queries.  Prefix satisfiability is
monotone (dropping the last plan item preserves any witness), so the
longest satisfiable prefix is found by walking ``k`` from the full body
downward and stopping at the first satisfiable slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from ..datalog.ast import Constant, Literal, Rule, Variable
from ..datalog.errors import SolverError
from ..datalog.planning import plan_body
from ..engines.explain import _bind_head, _lookup
from ..engines.grounding import run_plan

__all__ = ["MissingPremise", "RuleFrontier", "WhyNotReport", "whynot"]


@dataclass
class MissingPremise:
    """The first unsatisfiable plan item of a rule's body."""

    #: "literal" (a positive body atom has no matching tuple), "negation"
    #: (a negated atom is blocked by a present tuple), "constraint" (an
    #: eval/test item rejected the witness binding), or "aggregate" (the
    #: group exists but computes a different value).
    kind: str
    pred: str | None
    #: The atom's argument pattern under the witness binding; ``None``
    #: marks positions the satisfied prefix left unbound.
    pattern: tuple = ()
    detail: str = ""

    def format(self) -> str:
        if self.kind == "constraint":
            return f"constraint {self.detail} rejected the binding"
        shown = tuple("_" if v is None else v for v in self.pattern)
        if self.kind == "negation":
            return f"!{self.pred}{shown} blocked by a present tuple"
        if self.kind == "aggregate":
            return f"{self.pred}{shown}: {self.detail}"
        text = f"{self.pred}{shown} has no matching tuple"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class RuleFrontier:
    """One rule's near-miss: how far its body got, and what stopped it."""

    rule: Rule
    #: Plan items satisfied / total plan items.
    satisfied: int
    total: int
    missing: MissingPremise

    def format(self) -> str:
        if self.rule is None:
            return self.missing.format()
        return (
            f"{self.satisfied}/{self.total} premises satisfied in "
            f"[{self.rule!r}]; missing: {self.missing.format()}"
        )


@dataclass
class WhyNotReport:
    """The full frontier for one absent tuple."""

    pred: str
    row: tuple
    #: "frontier" (per-rule near-misses below), "input-fact-absent" (EDB
    #: predicate: the fix is inserting the fact itself),
    #: "aggregate-mismatch" (the group exists with a different value), or
    #: "no-rule" (nothing can derive this predicate).
    reason: str
    frontier: list[RuleFrontier] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"{self.pred}{self.row} is not derived: {self.reason}"]
        for entry in self.frontier:
            lines.append(f"  - {entry.format()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe rendering (docs/explain_schema.json)."""
        from ..service.snapshot import stable_repr

        def values(row: tuple) -> list:
            return [None if v is None else stable_repr(v) for v in row]

        return {
            "pred": self.pred,
            "row": values(self.row),
            "reason": self.reason,
            "frontier": [
                {
                    "rule": None if entry.rule is None else repr(entry.rule),
                    "satisfied": entry.satisfied,
                    "total": entry.total,
                    "missing": {
                        "kind": entry.missing.kind,
                        "pred": entry.missing.pred,
                        "pattern": values(entry.missing.pattern),
                        "detail": entry.missing.detail,
                    },
                }
                for entry in self.frontier
            ],
        }


def whynot(solver, pred: str, row: tuple, max_rules: int = 8) -> WhyNotReport:
    """Explain why ``row`` is **not** in ``pred`` on a solved solver.

    Raises :class:`SolverError` when the tuple *is* derived (use
    :func:`~repro.engines.explain.explain`), or when ``pred`` / the row
    arity is unknown to the program.
    """
    solver._require_solved()
    metrics = solver.metrics
    metrics.provenance_whynots += 1
    started = perf_counter()
    try:
        return _whynot(solver, pred, tuple(row), max_rules)
    finally:
        metrics.provenance_seconds += perf_counter() - started


def _whynot(solver, pred: str, row: tuple, max_rules: int) -> WhyNotReport:
    expected = solver.arities.get(pred)
    if expected is None:
        raise SolverError(f"unknown predicate {pred!r}")
    if len(row) != expected:
        raise SolverError(
            f"{pred} expects arity {expected}, got {len(row)}: {row!r}"
        )
    if row in solver.relation(pred):
        raise SolverError(f"{pred}{row} is derived; use explain")

    if pred in solver.edb:
        return WhyNotReport(
            pred, row, "input-fact-absent",
            frontier=[RuleFrontier(
                rule=None, satisfied=0, total=0,
                missing=MissingPremise(
                    "literal", pred, row,
                    detail="this is an input relation; insert the fact",
                ),
            )],
        )

    lookup = _lookup(solver)
    agg_rule = solver._aggregation_rule(pred)
    if agg_rule is not None:
        from ..engines.aggspec import AggSpec

        spec = AggSpec.compile(agg_rule, solver.program)
        return _whynot_aggregate(lookup, pred, row, agg_rule, spec)
    return _whynot_rules(solver, lookup, pred, row, max_rules)


def _whynot_rules(solver, lookup, pred, row, max_rules) -> WhyNotReport:
    frontier: list[RuleFrontier] = []
    rules = solver.program.rules_for(pred)
    if not rules:
        return WhyNotReport(pred, row, "no-rule")
    for rule in rules:
        if rule.is_aggregation:
            continue
        binding = _bind_head(rule, row)
        if binding is None:
            continue  # head constants contradict the requested row
        plan = plan_body(rule, initially_bound=rule.head_variables())
        entry = _frontier_for(solver, lookup, rule, plan, binding)
        if entry is not None:
            frontier.append(entry)
    frontier.sort(key=lambda e: (e.total - e.satisfied, -e.satisfied))
    return WhyNotReport(pred, row, "frontier", frontier=frontier[:max_rules])


def _frontier_for(solver, lookup, rule, plan, binding) -> RuleFrontier | None:
    """The longest satisfiable prefix of ``plan`` under the head binding,
    and the first item the witness cannot extend through."""
    total = len(plan)
    for k in range(total, -1, -1):
        witness = None
        for theta in run_plan(plan[:k], solver.program, lookup, dict(binding)):
            witness = dict(theta)
            break
        if witness is None:
            continue
        if k == total:
            # The body *is* satisfiable against the exported views — the
            # tuple is absent for engine-level reasons (e.g. it was pruned
            # as a superseded aggregate intermediate).  Not a near-miss.
            return None
        return RuleFrontier(
            rule=rule, satisfied=k, total=total,
            missing=_describe_item(solver, plan[k], witness),
        )
    return None  # unreachable: the empty prefix always admits the binding


def _describe_item(solver, item, witness) -> MissingPremise:
    if isinstance(item, Literal):
        pattern = tuple(
            term.value if isinstance(term, Constant)
            else witness.get(term.name) if isinstance(term, Variable)
            else None
            for term in item.atom.args
        )
        if item.negated:
            return MissingPremise("negation", item.pred, pattern)
        detail = ""
        if item.pred in solver.edb:
            detail = (
                "input fact absent" if solver.facts(item.pred)
                else "input relation is empty"
            )
        return MissingPremise("literal", item.pred, pattern, detail=detail)
    return MissingPremise("constraint", None, (), detail=repr(item))


def _whynot_aggregate(lookup, pred, row, agg_rule, spec) -> WhyNotReport:
    key, value = spec.split_tuple(row)
    view = lookup(pred)
    existing = view.matching(spec.tuple_for(key, None))
    if existing:
        _, actual = spec.split_tuple(next(iter(existing)))
        return WhyNotReport(
            pred, row, "aggregate-mismatch",
            frontier=[RuleFrontier(
                rule=agg_rule, satisfied=0, total=1,
                missing=MissingPremise(
                    "aggregate", pred, spec.tuple_for(key, None),
                    detail=f"the group's aggregate is {actual!r}, "
                           f"not {value!r}",
                ),
            )],
        )
    # The group itself is empty: the missing premise is the collecting
    # atom, with the group variables bound to the requested key.
    collecting: Literal = spec.plan[0]
    key_iter = iter(key)
    group_names = {}
    for pos, term in enumerate(spec.head.args):
        if pos == spec.agg_pos:
            continue
        k = next(key_iter)
        if isinstance(term, Variable):
            group_names[term.name] = k
    pattern = tuple(
        term.value if isinstance(term, Constant)
        else group_names.get(term.name) if isinstance(term, Variable)
        else None
        for term in collecting.atom.args
    )
    return WhyNotReport(
        pred, row, "frontier",
        frontier=[RuleFrontier(
            rule=agg_rule, satisfied=0, total=1,
            missing=MissingPremise(
                "literal", collecting.pred, pattern,
                detail="no aggregands exist for this group",
            ),
        )],
    )

