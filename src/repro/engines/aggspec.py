"""Compiled description of an aggregation rule, shared by all engines.

After normalization every aggregated predicate has exactly one aggregation
rule whose body is a single positive literal over its collecting relation.
:class:`AggSpec` pre-computes everything engines need: the body plan, the
aggregator object, and how to split/reassemble head tuples into
``(group key, aggregand value)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.ast import AggTerm, Constant, Head, Literal, Rule, Variable
from ..datalog.errors import SolverError
from ..datalog.planning import plan_body
from ..datalog.program import Program
from ..lattices import Aggregator


@dataclass
class AggSpec:
    """Everything an engine needs to evaluate one aggregation rule."""

    pred: str
    rule: Rule
    plan: list
    aggregator: Aggregator
    agg_pos: int
    collecting_pred: str

    @classmethod
    def compile(cls, rule: Rule, program: Program) -> "AggSpec":
        positions = rule.head.agg_positions()
        if len(positions) != 1:
            raise SolverError(f"{rule!r}: exactly one aggregation slot expected")
        if len(rule.body) != 1 or not isinstance(rule.body[0], Literal):
            raise SolverError(
                f"{rule!r}: aggregation body must be a single collecting literal"
            )
        agg_term: AggTerm = rule.head.args[positions[0]]
        return cls(
            pred=rule.head.pred,
            rule=rule,
            plan=plan_body(rule),
            aggregator=program.aggregators[agg_term.op],
            agg_pos=positions[0],
            collecting_pred=rule.body[0].pred,
        )

    @property
    def head(self) -> Head:
        return self.rule.head

    def key_and_value(self, binding: dict) -> tuple[tuple, object]:
        """Split a body binding into (group key, aggregand value)."""
        key = []
        value = None
        for i, term in enumerate(self.head.args):
            if i == self.agg_pos:
                value = binding[term.var.name]
            elif isinstance(term, Constant):
                key.append(term.value)
            elif isinstance(term, Variable):
                key.append(binding[term.name])
            else:  # pragma: no cover - normalization prevents this
                raise SolverError(f"unexpected head term {term!r}")
        return tuple(key), value

    def tuple_for(self, key: tuple, value: object) -> tuple:
        """Reassemble a head tuple from a group key and aggregate value.

        Group keys preserve head-argument order with the aggregate position
        removed, so reassembly is a slice splice.
        """
        pos = self.agg_pos
        return key[:pos] + (value,) + key[pos:]

    def split_tuple(self, row: tuple) -> tuple[tuple, object]:
        """Split a stored head tuple into (group key, value)."""
        pos = self.agg_pos
        return row[:pos] + row[pos + 1:], row[pos]


def compile_agg_specs(rules, program: Program) -> dict[str, AggSpec]:
    """AggSpec per aggregated predicate among ``rules``."""
    specs: dict[str, AggSpec] = {}
    for rule in rules:
        if rule.is_aggregation:
            specs[rule.head.pred] = AggSpec.compile(rule, program)
    return specs


#: The final of a group that holds no aggregand.
NO_GROUP = object()


def final_diff(spec: AggSpec, before: dict, final) -> tuple[set[tuple], set[tuple]]:
    """The exported ``(added, removed)`` rows of an aggregated predicate
    whose touched groups' finals were ``before`` (key -> final) and are now
    ``final(key)``: the export rule of the in-place engines (DRedL, Laddder)."""
    added: set[tuple] = set()
    removed: set[tuple] = set()
    for key, old in before.items():
        new = final(key)
        if old == new:
            continue
        if old is not NO_GROUP:
            removed.add(spec.tuple_for(key, old))
        if new is not NO_GROUP:
            added.add(spec.tuple_for(key, new))
    return added, removed


def prune_aggregated(tuples, spec: AggSpec) -> set[tuple]:
    """The pruned view: per group, only the final (extremal) aggregate.

    This is ``Prn`` from Section 6.3 — discard intermediate inflationary
    aggregate results, keeping the ⊑-extremal (equivalently latest) one.
    """
    groups: dict[tuple, list] = {}
    for row in tuples:
        key, value = spec.split_tuple(row)
        groups.setdefault(key, []).append(value)
    return {
        spec.tuple_for(key, spec.aggregator.final(values))
        for key, values in groups.items()
    }
