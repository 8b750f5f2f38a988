"""Body planning: order body items so evaluation is well-defined.

All engines evaluate rule bodies left to right, binding variables as they
go.  :func:`plan_body` reorders the body so that:

* positive literals come cheapest first, by estimated enumeration cost,
* ``Eval`` atoms run as soon as their arguments are bound,
* ``Test`` atoms and negated literals run as soon as their arguments are
  bound (negation is safe only on fully bound atoms).

``pinned`` pins one chosen positive-literal occurrence first — the *delta*
position used by semi-naïve and incremental evaluation (see
:func:`delta_plans` / :func:`delta_occurrences`).

Both raise :class:`ValidationError` if no admissible order exists
(an unbound Eval argument, unsafe negation, ...).

The cost of a positive literal comes from a *cardinality oracle*
(``pred -> live size``) by the classic ``size ** (1 - bound/arity)``
reduction: each bound column is assumed to cut the relation by one uniform
factor.  Ties go to the literal sharing the most bound variables, then to
body position.  The default oracle reports every relation empty, so every
cost is 0 and the tie-breaks alone give the greedy most-bound-first order:
the plan for callers that have no sizes to offer.
"""

from __future__ import annotations

from typing import Callable

from .ast import BodyItem, Constant, Eval, Literal, Rule, Test, Variable
from .errors import ValidationError

#: Maps a predicate name to its current tuple count.
CardinalityOracle = Callable[[str], int]


def no_sizes(pred: str) -> int:
    """The default oracle: nothing is solved yet, every relation is empty."""
    return 0


def _term_vars(args) -> set[Variable]:
    return {a for a in args if isinstance(a, Variable)}


def _ready(item: BodyItem, bound: set[Variable]) -> bool:
    if isinstance(item, Literal):
        if item.negated:
            return _term_vars(item.atom.args) <= bound
        return True  # a positive literal can always be scanned
    if isinstance(item, Eval):
        return _term_vars(item.args) <= bound
    if isinstance(item, Test):
        return _term_vars(item.args) <= bound
    raise TypeError(f"unknown body item {item!r}")


def _binds(item: BodyItem) -> set[Variable]:
    if isinstance(item, Literal) and not item.negated:
        return _term_vars(item.atom.args)
    if isinstance(item, Eval):
        return {item.var}
    return set()


def _overlap(item: BodyItem, bound: set[Variable]) -> int:
    if isinstance(item, Literal):
        return len(_term_vars(item.atom.args) & bound)
    return 0


def _estimated_cost(
    item: Literal, bound: set[Variable], oracle: CardinalityOracle
) -> float:
    """Estimated rows enumerated when probing ``item`` with ``bound`` known.

    Each bound column (constant or already-bound variable) is one uniform
    selectivity factor: ``size ** (1 - bound_cols/arity)``.  A fully bound
    probe costs ~1 (membership check); a full scan costs ``size``.
    """
    size = oracle(item.pred)
    if size <= 1:
        return float(max(size, 0))
    args = item.atom.args
    if not args:
        return float(size)
    bound_cols = sum(
        1
        for a in args
        if isinstance(a, Constant) or (isinstance(a, Variable) and a in bound)
    )
    if bound_cols >= len(args):
        return 1.0
    return float(size) ** (1.0 - bound_cols / len(args))


def plan_body(
    rule: Rule,
    pinned: int | None = None,
    initially_bound: set[Variable] | None = None,
    oracle: CardinalityOracle = no_sizes,
) -> list[BodyItem]:
    """Return the body items of ``rule`` in an admissible evaluation order.

    ``pinned`` (an index into ``rule.body``) forces that item first — it must
    be a relational literal.  ``initially_bound`` variables count as bound
    before the first item (used for head-bound re-derivation checks in
    DRed).  ``oracle`` sizes the relations positive literals are costed by.
    Raises :class:`ValidationError` if no admissible order exists.
    """
    remaining = list(enumerate(rule.body))
    ordered: list[BodyItem] = []
    bound: set[Variable] = set(initially_bound or ())

    if pinned is not None:
        item = rule.body[pinned]
        if not isinstance(item, Literal):
            raise ValidationError(
                f"cannot pin non-relational body item {item!r} in {rule!r}"
            )
        # The pinned occurrence is instantiated from a ground (delta) tuple,
        # so its variables count as bound even when the literal is negated.
        ordered.append(item)
        bound |= _term_vars(item.atom.args)
        remaining = [(i, b) for i, b in remaining if i != pinned]

    while remaining:
        # Priority: ready Eval/Test/negation first (cheap filters), then the
        # cheapest positive literal.
        filter_idx = next(
            (
                k
                for k, (_, item) in enumerate(remaining)
                if not _is_positive(item) and _ready(item, bound)
            ),
            None,
        )
        if filter_idx is not None:
            _, item = remaining.pop(filter_idx)
            ordered.append(item)
            bound |= _binds(item)
            continue
        positives = [
            (k, item) for k, (_, item) in enumerate(remaining) if _is_positive(item)
        ]
        if not positives:
            stuck = [item for _, item in remaining]
            raise ValidationError(
                f"no admissible body order for {rule!r}: unbound {stuck!r}"
            )
        # Least estimated cost; ties broken by bound-variable overlap, then
        # original body position (deterministic plans).
        k, item = min(
            positives,
            key=lambda pair: (
                _estimated_cost(pair[1], bound, oracle),
                -_overlap(pair[1], bound),
                pair[0],
            ),
        )
        remaining.pop(k)
        ordered.append(item)
        bound |= _binds(item)

    _check_head_bound(rule, bound)
    return ordered


def _is_positive(item: BodyItem) -> bool:
    return isinstance(item, Literal) and not item.negated


def _check_head_bound(rule: Rule, bound: set[Variable]) -> None:
    unbound = {v for v in rule.head_variables() if v not in bound}
    if unbound:
        raise ValidationError(
            f"head variables {sorted(v.name for v in unbound)} of {rule!r} "
            f"are not bound by the body (unsafe rule)"
        )


def delta_occurrences(
    rule: Rule, include_negated: bool = False
) -> list[tuple[int, Literal]]:
    """The relational body occurrences eligible for delta pinning.

    Negated occurrences are included only on request (incremental engines
    need them: inserting into a negated relation *deletes* derivations and
    vice versa).
    """
    return [
        (i, item)
        for i, item in enumerate(rule.body)
        if isinstance(item, Literal) and (include_negated or not item.negated)
    ]


def delta_plans(
    rule: Rule,
    include_negated: bool = False,
    oracle: CardinalityOracle = no_sizes,
) -> list[tuple[int, list[BodyItem]]]:
    """One plan per relational body occurrence, pinned first.

    Semi-naïve and incremental evaluation instantiate the pinned occurrence
    with delta tuples and join the rest against full relations.
    """
    return [
        (i, plan_body(rule, pinned=i, oracle=oracle))
        for i, _item in delta_occurrences(rule, include_negated)
    ]
