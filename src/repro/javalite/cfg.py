"""Control-flow graphs and the inter-procedural CFG (ICFG).

The paper's constant propagation and interval analyses "operate on the
Jimple representation ... we use Soot to extract the Jimple AST and the
ICFG" (Section 7).  This module is that extraction step for javalite:

* :func:`build_cfg` flattens a method's structured statements into nodes
  (statement labels) with intra-procedural successor edges, plus synthetic
  ``meth/entry`` and ``meth/exit`` nodes.
* :func:`build_icfg` adds class-hierarchy-resolved call edges
  (call node → callee entry) and return edges (callee exit → call node),
  one method at a time (:func:`method_call_edges`).

Locals are method-scoped and unreachable from callees, so the ICFG keeps
the local successor edge across call nodes: caller-local facts flow over
the call, while parameter/return value flow travels through the call and
return edges (see :mod:`repro.analyses.valueflow`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import If, JMethod, JProgram, Return, StaticCall, Stmt, VirtualCall, While
from .types import ClassHierarchy


@dataclass
class CFG:
    """One method's intra-procedural control-flow graph."""

    method: str
    entry: str
    exit: str
    nodes: list[str] = field(default_factory=list)
    edges: set[tuple[str, str]] = field(default_factory=set)
    stmt_of: dict[str, Stmt] = field(default_factory=dict)

    def successors(self, node: str) -> list[str]:
        return sorted(dst for src, dst in self.edges if src == node)


def build_cfg(method: JMethod) -> CFG:
    """Flatten structured control flow into a node/edge graph."""
    entry = f"{method.qualified}/entry"
    exit_ = f"{method.qualified}/exit"
    cfg = CFG(method=method.qualified, entry=entry, exit=exit_)
    cfg.nodes = [entry, exit_]

    def register(stmt: Stmt) -> str:
        cfg.nodes.append(stmt.label)
        cfg.stmt_of[stmt.label] = stmt
        return stmt.label

    def block(stmts: list[Stmt], preds: list[str]) -> list[str]:
        """Wire ``stmts`` after ``preds``; return the dangling exits."""
        current = preds
        for stmt in stmts:
            label = register(stmt)
            for pred in current:
                cfg.edges.add((pred, label))
            if isinstance(stmt, If):
                then_exits = block(stmt.then_block, [label])
                else_exits = block(stmt.else_block, [label])
                current = then_exits + else_exits
            elif isinstance(stmt, While):
                body_exits = block(stmt.body, [label])
                for tail in body_exits:
                    cfg.edges.add((tail, label))  # back edge
                current = [label]  # loop exit falls through the condition
            elif isinstance(stmt, Return):
                cfg.edges.add((label, exit_))
                current = []  # nothing follows a return
            else:
                current = [label]
        return current

    dangling = block(method.body, [entry])
    for tail in dangling:
        cfg.edges.add((tail, exit_))
    if not method.body:
        cfg.edges.add((entry, exit_))
    return cfg


@dataclass
class ICFG:
    """All method CFGs plus CHA-resolved call and return edges."""

    cfgs: dict[str, CFG] = field(default_factory=dict)
    #: (call node, callee qualified method)
    call_edges: set[tuple[str, str]] = field(default_factory=set)

    def all_nodes(self) -> list[str]:
        return [n for cfg in self.cfgs.values() for n in cfg.nodes]

    def all_local_edges(self) -> list[tuple[str, str]]:
        return [e for cfg in self.cfgs.values() for e in sorted(cfg.edges)]

    def callees(self, node: str) -> list[str]:
        return sorted(m for n, m in self.call_edges if n == node)

    def node_count(self) -> int:
        return sum(len(cfg.nodes) for cfg in self.cfgs.values())


def build_icfg(program: JProgram, hierarchy: ClassHierarchy) -> ICFG:
    """Per-method CFGs plus class-hierarchy-analysis call edges."""
    icfg = ICFG()
    for method in program.methods():
        icfg.cfgs[method.qualified] = build_cfg(method)
        icfg.call_edges |= method_call_edges(hierarchy, method)
    return icfg


def method_call_edges(
    hierarchy: ClassHierarchy, method: JMethod
) -> set[tuple[str, str]]:
    """``method``'s (call node, callee) edges.

    Virtual call sites link to every override reachable from any concrete
    subclass of any class defining the signature — the standard CHA
    over-approximation Soot uses when no points-to information is available.
    """
    edges: set[tuple[str, str]] = set()
    for stmt in method.statements():
        if isinstance(stmt, VirtualCall):
            for target in hierarchy.cha_targets(stmt.sig):
                edges.add((stmt.label, target))
        elif isinstance(stmt, StaticCall):
            target = hierarchy.lookup(stmt.cls, stmt.sig)
            if target is not None:
                edges.add((stmt.label, target))
    return edges

