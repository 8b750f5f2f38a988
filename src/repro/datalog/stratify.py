"""Dependency components (strata) and their topological ordering.

Section 4.1: *"Laddder breaks up the analysis into dependency components
(sets of mutually recursive rules, also called strata in Datalog) and applies
rules according to a topological ordering of these components."*

We compute strongly connected components of the predicate dependency graph
with Tarjan's algorithm and return them bottom-up.  Each
:class:`Component` records its predicates, the rules defining them, the
upstream predicates it reads, and whether any dependency edge inside it is
negated (illegal) or crosses an aggregation (recursive aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Rule, span_of
from .errors import ValidationError
from .program import Program


@dataclass
class Component:
    """One dependency component, in bottom-up evaluation order."""

    index: int
    predicates: frozenset[str]
    rules: list[Rule]
    #: IDB/EDB predicates read from earlier components (timestamp-0 inputs).
    upstream: frozenset[str]
    #: True iff some predicate in the component depends on itself
    #: (possibly through others) — needs fixpoint iteration.
    recursive: bool
    #: Aggregated predicates defined inside this component.
    aggregated: frozenset[str]

    @property
    def has_aggregation(self) -> bool:
        return bool(self.aggregated)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preds = ",".join(sorted(self.predicates))
        return f"<Component #{self.index} {{{preds}}}>"


@dataclass
class _Graph:
    edges: dict[str, set[str]] = field(default_factory=dict)  # body -> heads
    negated_pairs: set[tuple[str, str]] = field(default_factory=set)

    def add_edge(self, src: str, dst: str, negated: bool) -> None:
        self.edges.setdefault(src, set()).add(dst)
        self.edges.setdefault(dst, set())
        if negated:
            self.negated_pairs.add((src, dst))


def _dependency_graph(program: Program) -> _Graph:
    graph = _Graph()
    idb = program.idb_predicates()
    for pred in idb:
        graph.edges.setdefault(pred, set())
    for rule in program.rules:
        for literal in rule.body_literals():
            if literal.pred in idb:
                graph.add_edge(literal.pred, rule.head.pred, literal.negated)
    return graph


def _tarjan(graph: _Graph) -> list[list[str]]:
    """Iterative Tarjan SCC; returns components in reverse topological order
    of the condensation (callers reverse it)."""
    index_counter = 0
    indices: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    for root in sorted(graph.edges):
        if root in indices:
            continue
        work = [(root, iter(sorted(graph.edges[root])))]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in indices:
                    indices[succ] = lowlink[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.edges[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def stratify(program: Program) -> list[Component]:
    """Split ``program`` into dependency components in bottom-up order.

    Raises :class:`ValidationError` on non-stratified negation (a negated
    dependency inside a component), per ASM3.
    """
    graph = _dependency_graph(program)
    sccs = _tarjan(graph)

    # Tarjan emits components in reverse topological order of the
    # condensation; reversing yields bottom-up (dependencies first).
    sccs.reverse()

    member_of: dict[str, int] = {}
    for i, scc in enumerate(sccs):
        for pred in scc:
            member_of[pred] = i

    for src, dst in sorted(graph.negated_pairs):
        if member_of.get(src) == member_of.get(dst):
            culprit = next(
                (
                    r for r in program.rules
                    if r.head.pred == dst
                    and any(l.negated and l.pred == src for l in r.body_literals())
                ),
                None,
            )
            raise ValidationError(
                f"negation inside a recursive component: !{src} feeds {dst} "
                f"(ASM3 requires stratified negation)",
                code="DLC301",
                span=span_of(culprit) if culprit is not None else None,
            )

    components: list[Component] = []
    for i, scc in enumerate(sccs):
        predicates = frozenset(scc)
        rules = [r for r in program.rules if r.head.pred in predicates]
        reads = {lit.pred for rule in rules for lit in rule.body_literals()}
        aggregated = frozenset(
            rule.head.pred for rule in rules if rule.is_aggregation
        )
        components.append(
            Component(
                index=i,
                predicates=predicates,
                rules=rules,
                upstream=frozenset(reads - predicates),
                recursive=not reads.isdisjoint(predicates),
                aggregated=aggregated,
            )
        )
    return components
