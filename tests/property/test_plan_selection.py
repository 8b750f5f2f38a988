"""One selection rule in ``plan_body``: the greedy most-bound-first order is
the cost order under an oracle that reports every relation empty.

Every estimated cost is then 0, so the cost order falls through to its
tie-breaks (most bound variables shared, then body position), which is the
greedy rule.  ``greedy_plan`` below keeps that rule as a reference: the
same admissibility loop, picking the positive literal that shares the most
bound variables.  ``plan_body`` with its default oracle must agree with it
on random rules and on every bundled analysis's rules, unpinned and at every
pinned occurrence (negated ones included), with and without the head bound
up front.
"""

import pytest
from hypothesis import given, settings

from repro.analyses import ANALYSES
from repro.corpus import load_subject
from repro.datalog.ast import Eval, Literal, Variable
from repro.datalog.errors import ValidationError
from repro.datalog.normalize import normalize
from repro.datalog.planning import delta_occurrences, no_sizes, plan_body

from tests.property.test_parser_roundtrip import programs


def variables(args):
    return {a for a in args if isinstance(a, Variable)}


def is_positive(item):
    return isinstance(item, Literal) and not item.negated


def ready(item, bound):
    if is_positive(item):
        return True
    args = item.atom.args if isinstance(item, Literal) else item.args
    return variables(args) <= bound


def binds(item):
    if is_positive(item):
        return variables(item.atom.args)
    if isinstance(item, Eval):
        return {item.var}
    return set()


def greedy_plan(rule, pinned=None, initially_bound=None):
    """The most-bound-first order: the first ready filter, else the positive
    literal sharing the most bound variables (the earliest on a tie)."""
    remaining = list(rule.body)
    ordered = []
    bound = set(initially_bound or ())
    if pinned is not None:
        item = rule.body[pinned]
        if not isinstance(item, Literal):
            raise ValidationError("cannot pin a non-relational body item")
        ordered.append(item)
        bound |= variables(item.atom.args)
        del remaining[pinned]
    while remaining:
        filters = [
            k for k, item in enumerate(remaining)
            if not is_positive(item) and ready(item, bound)
        ]
        positives = [k for k, item in enumerate(remaining) if is_positive(item)]
        if filters:
            k = filters[0]
        elif positives:
            k = max(
                positives,
                key=lambda k: len(variables(remaining[k].atom.args) & bound),
            )
        else:
            raise ValidationError("no admissible body order")
        item = remaining.pop(k)
        ordered.append(item)
        bound |= binds(item)
    if not set(rule.head_variables()) <= bound:
        raise ValidationError("unsafe rule")
    return ordered


def outcome(plan, rule, **kwargs):
    try:
        return plan(rule, **kwargs)
    except ValidationError:
        return ValidationError


def assert_one_rule(rule):
    pins = [None] + [i for i, _ in delta_occurrences(rule, include_negated=True)]
    for pinned in pins:
        for initially_bound in (None, set(rule.head_variables())):
            kwargs = {"pinned": pinned, "initially_bound": initially_bound}
            expected = outcome(greedy_plan, rule, **kwargs)
            assert outcome(plan_body, rule, **kwargs) == expected, (rule, kwargs)
            assert outcome(
                plan_body, rule, oracle=no_sizes, **kwargs
            ) == expected, (rule, kwargs)


@settings(max_examples=150, deadline=None)
@given(programs())
def test_greedy_is_cost_order_over_empty_relations(program):
    for rule in program.rules:
        assert_one_rule(rule)


@pytest.mark.parametrize("analysis", sorted(ANALYSES))
def test_bundled_rules_plan_the_same_greedy_and_over_empty_relations(analysis):
    program = ANALYSES[analysis](load_subject("minijavac")).program.copy()
    normalize(program)
    for rule in program.rules:
        assert_one_rule(rule)
