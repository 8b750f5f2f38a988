"""Static change-impact analysis over the predicate dependency graph.

The paper's whole evaluation (Sections 3 and 7.1) frames update cost as
*update time vs. impact*: a small edit should cost in proportion to the
facts it can actually affect.  At run time the update pipeline enforces
that dynamically — a stratum runs only when a relation it reads changed
(:meth:`repro.engines.base.Solver.update`).  This module states the same
reachability *statically*, for diagnostics.  From the parsed
(and normalized, and possibly dead-rule-pruned) program plus the dependency
components :func:`repro.datalog.stratify.stratify` produced, an
:class:`ImpactIndex` records, for every EDB predicate, its **forward impact
set**: the IDB predicates, rules, and strata a delta to it can possibly
affect.  Edges are polarity- and stratum-annotated:

* negated body literals widen the set exactly like positive ones — an
  insertion into a negated atom *retracts* downstream tuples, so the edge
  must be followed conservatively in both polarities;
* aggregation (lattice-merge) edges are likewise followed, and the merged
  predicates are additionally tracked per impact set so Laddder's
  compensation strata — where a single collecting-tuple move can replay a
  group's whole output-run history — are visible in reports.

Because dependency components are strongly connected, the forward closure
that reaches any predicate of a component contains the whole component, so
impact sets are component-closed.  Every predicate an epoch changes lies in
the closure of the EDB predicates it touched (the property test in
``tests/integration/test_impact.py``).

The graph powers the DLC7xx perf lints and ``repro check --impact``
(:meth:`report`; docs/STATIC_CHECKS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Rule
from .program import Program
from .stratify import Component, stratify


@dataclass(frozen=True)
class ImpactEdge:
    """One annotated dependency edge: ``src`` (a body predicate) feeds
    ``dst`` (a head predicate) through some rule."""

    src: str
    dst: str
    #: True when some occurrence of ``src`` in a rule for ``dst`` is negated.
    negated: bool
    #: True when the edge crosses a lattice aggregation (``dst`` is merged).
    merge: bool
    #: Stratum (component index) of ``dst``.
    stratum: int


class ImpactIndex:
    """Per-EDB-predicate forward impact sets over an annotated pred graph.

    Construct once per (pruned) program; ``components`` must be the same
    bottom-up component list the engines evaluate, so stratum indices in
    reports line up with engine component indices.
    """

    def __init__(
        self, program: Program, components: list[Component] | None = None
    ):
        if components is None:
            components = stratify(program)
        self.components = components
        self.strata_total = len(components)
        self.edb: frozenset[str] = frozenset(program.edb_predicates())
        self.idb: frozenset[str] = frozenset(program.idb_predicates())
        #: pred -> component index (IDB predicates only).
        self.stratum_of: dict[str, int] = {}
        for component in components:
            for pred in component.predicates:
                self.stratum_of[pred] = component.index
        #: All lattice-aggregated predicates.
        self.aggregated: frozenset[str] = frozenset(
            pred for component in components for pred in component.aggregated
        )

        #: src pred -> successor head preds (all polarities, conservative).
        self._successors: dict[str, set[str]] = {}
        #: Annotated edge list (reports, lints).
        self.edges: list[ImpactEdge] = []
        #: head pred -> rules deriving it.
        self._rules_by_head: dict[str, list[Rule]] = {}
        edge_flags: dict[tuple[str, str], list[bool]] = {}
        for rule in program.rules:
            self._rules_by_head.setdefault(rule.head.pred, []).append(rule)
            head = rule.head.pred
            for literal in rule.body_literals():
                flags = edge_flags.setdefault((literal.pred, head), [False])
                flags[0] = flags[0] or literal.negated
                self._successors.setdefault(literal.pred, set()).add(head)
        for (src, dst), (negated,) in sorted(edge_flags.items()):
            self.edges.append(
                ImpactEdge(
                    src=src,
                    dst=dst,
                    negated=negated,
                    merge=dst in self.aggregated,
                    stratum=self.stratum_of.get(dst, -1),
                )
            )

        #: Everything an EDB delta can reach (sources included).
        reach: set[str] = set(self.edb)
        for pred in self.edb:
            reach |= self._closure(pred)
        self.delta_reachable: frozenset[str] = frozenset(reach)

        #: Lazily filled forward-closure cache: EDB pred -> affected preds.
        self._impact_cache: dict[str, frozenset[str]] = {}

    # -- core queries ------------------------------------------------------

    def _closure(self, pred: str) -> set[str]:
        """Forward closure of ``pred`` over the dependency edges (``pred``
        itself excluded unless it is on a cycle)."""
        seen: set[str] = set()
        stack = list(self._successors.get(pred, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors.get(node, ()))
        return seen

    def affected_predicates(self, pred: str) -> frozenset[str]:
        """IDB predicates a delta to ``pred`` can possibly affect."""
        cached = self._impact_cache.get(pred)
        if cached is None:
            cached = self._impact_cache[pred] = frozenset(self._closure(pred))
        return cached

    def affected_rules(self, pred: str) -> list[Rule]:
        """Rules whose derivations a delta to ``pred`` can possibly change."""
        out: list[Rule] = []
        for head in sorted(self.affected_predicates(pred)):
            out.extend(self._rules_by_head.get(head, ()))
        return out

    def affected_strata(self, pred: str) -> frozenset[int]:
        """Component indices a delta to ``pred`` can possibly affect."""
        return frozenset(
            self.stratum_of[p]
            for p in self.affected_predicates(pred)
            if p in self.stratum_of
        )

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The ``repro check --impact`` payload (docs/check_schema.json)."""
        per_edb = {}
        for pred in sorted(self.edb):
            affected = self.affected_predicates(pred)
            per_edb[pred] = {
                "predicates": sorted(affected),
                "rules": len(self.affected_rules(pred)),
                "strata": sorted(self.affected_strata(pred)),
                "lattice_merges": sorted(affected & self.aggregated),
            }
        return {
            "strata_total": self.strata_total,
            "edb": per_edb,
            "delta_reachable": sorted(self.delta_reachable),
            "unreachable_rules": sum(
                1
                for rules in self._rules_by_head.values()
                for rule in rules
                if rule.body_literals()
                and not any(
                    lit.pred in self.delta_reachable
                    for lit in rule.body_literals()
                )
            ),
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "negated": e.negated,
                    "merge": e.merge,
                    "stratum": e.stratum,
                }
                for e in self.edges
            ],
        }


__all__ = ["ImpactEdge", "ImpactIndex"]
