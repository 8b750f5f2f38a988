"""Doop-style fact extraction (the Doop fact extractor + Soot stand-in).

Two schemas, matching the two analysis families of Section 7:

* points-to — the relational view the Figure 1 family of points-to
  analyses consumes: ``alloc``, ``move``, ``vcall``, ``otype``, ``lookup``,
  ``lookupsub``, ``thisvar``, ``funcname``, plus parameter/return plumbing
  (``formalarg``, ``actualarg``, ``returnvar``, ``callret``) and field
  accesses (``loadf``, ``storef``).  Static calls are desugared into direct
  ``scall`` facts.

* value — the ICFG view the flow-sensitive constant propagation and
  interval analyses consume: per-node transfer facts (``assignlit``,
  ``assignmove``, ``assignbin``, ``havoc``), intra-procedural ``flow``
  edges, CHA ``calledge``s, and parameter/return plumbing keyed by call
  node.

Each schema is written once, as a per-method half (``method_*_facts``: every
fact a method's statements produce) and a program-global half
(``program_*_facts``: dispatch tables and the entry method, which no
statement edit changes).  :func:`extract_pointsto_facts` and
:func:`extract_value_facts` run both halves over the whole program;
:class:`repro.javalite.incremental.IncrementalExtractor` re-runs the
per-method half of one edited method.  Both return plain
``dict[pred -> set[tuple]]`` ready for
:meth:`repro.engines.base.Solver.add_facts`.
"""

from __future__ import annotations

from .ast import (
    BinOp,
    ConstAssign,
    JMethod,
    JProgram,
    Load,
    Move,
    New,
    Return,
    StaticCall,
    VirtualCall,
    Store,
)
from .cfg import CFG, ICFG, build_cfg, method_call_edges
from .types import ClassHierarchy

Facts = dict[str, set[tuple]]


def _fresh(*preds: str) -> Facts:
    return {pred: set() for pred in preds}


def method_pointsto_facts(
    method: JMethod, hierarchy: ClassHierarchy, facts: Facts
) -> None:
    """Add the points-to facts ``method`` produces to ``facts``.

    Also records each allocation site's class in ``hierarchy.obj_types``,
    which the singleton lattice needs.
    """
    meth = method.qualified
    facts["thisvar"].add((meth, method.this_var))
    for i, param in enumerate(method.params):
        facts["formalarg"].add((meth, i, method.local(param)))
    for stmt in method.statements():
        if isinstance(stmt, New):
            obj = stmt.label  # allocation sites are named by their label
            facts["alloc"].add((stmt.var, obj, meth))
            facts["otype"].add((obj, stmt.cls))
            hierarchy.obj_types[obj] = stmt.cls
        elif isinstance(stmt, Move):
            facts["move"].add((stmt.to, stmt.src))
        elif isinstance(stmt, VirtualCall):
            facts["vcall"].add((stmt.recv, stmt.sig, stmt.label, meth))
            for i, arg in enumerate(stmt.args):
                facts["actualarg"].add((stmt.label, i, arg))
            if stmt.ret is not None:
                facts["callret"].add((stmt.label, stmt.ret))
        elif isinstance(stmt, StaticCall):
            target = hierarchy.lookup(stmt.cls, stmt.sig)
            if target is not None:
                facts["scall"].add((stmt.label, target, meth))
                for i, arg in enumerate(stmt.args):
                    facts["actualarg"].add((stmt.label, i, arg))
                if stmt.ret is not None:
                    facts["callret"].add((stmt.label, stmt.ret))
        elif isinstance(stmt, Return) and stmt.var is not None:
            facts["returnvar"].add((meth, stmt.var))
        elif isinstance(stmt, Load):
            facts["loadf"].add((stmt.var, stmt.base, stmt.fieldname))
        elif isinstance(stmt, Store):
            facts["storef"].add((stmt.base, stmt.fieldname, stmt.src))


def program_pointsto_facts(
    program: JProgram, hierarchy: ClassHierarchy, facts: Facts
) -> None:
    """Add the program-global points-to facts (dispatch tables, entry)."""
    sigs = {sig for cls in program.classes.values() for sig in cls.methods}
    for cls_name in program.classes:
        for sig in sigs:
            resolved = hierarchy.lookup(cls_name, sig)
            if resolved is not None:
                facts["lookup"].add((cls_name, sig, resolved))
            for target in hierarchy.lookup_in_subclasses(cls_name, sig):
                facts["lookupsub"].add((cls_name, sig, target))
    facts["funcname"].add((program.entry, "main"))


def extract_pointsto_facts(
    program: JProgram, hierarchy: ClassHierarchy | None = None
) -> tuple[Facts, ClassHierarchy]:
    """Extract the Doop-style relational facts for points-to analyses.

    Returns the facts with the hierarchy, whose ``obj_types`` the
    extraction populated.
    """
    if hierarchy is None:
        hierarchy = ClassHierarchy(program)
    facts = _fresh(
        "alloc", "move", "vcall", "scall", "otype", "lookup", "lookupsub",
        "thisvar", "funcname", "formalarg", "actualarg", "returnvar",
        "callret", "loadf", "storef",
    )
    for method in program.methods():
        method_pointsto_facts(method, hierarchy, facts)
    program_pointsto_facts(program, hierarchy, facts)
    return facts, hierarchy


def method_value_facts(
    method: JMethod, hierarchy: ClassHierarchy, facts: Facts
) -> tuple[CFG, set[tuple[str, str]]]:
    """Add the ICFG transfer facts ``method`` produces to ``facts``; returns
    the method's CFG and CHA call edges (its share of the ICFG).

    Integer-typed locals get per-node transfer facts; everything the
    analyses cannot model precisely (field loads, allocations used as
    values) becomes a ``havoc`` (value unknown -> Top).
    """
    meth = method.qualified
    cfg = build_cfg(method)
    calls = method_call_edges(hierarchy, method)
    facts["entrynode"].add((meth, cfg.entry))
    facts["exitnode"].add((meth, cfg.exit))
    for i, param in enumerate(method.params):
        facts["formalarg"].add((meth, i, method.local(param)))
    facts["flow"].update(cfg.edges)
    for node, stmt in cfg.stmt_of.items():
        if isinstance(stmt, ConstAssign):
            facts["assignlit"].add((node, stmt.var, stmt.value))
        elif isinstance(stmt, Move):
            facts["assignmove"].add((node, stmt.to, stmt.src))
        elif isinstance(stmt, BinOp):
            facts["assignbin"].add((node, stmt.var, stmt.op, stmt.left, stmt.right))
        elif isinstance(stmt, (Load, New)):
            facts["havoc"].add((node, stmt.var))
        elif isinstance(stmt, (VirtualCall, StaticCall)):
            if stmt.ret is not None:
                facts["callret"].add((node, stmt.ret))
            for i, arg in enumerate(stmt.args):
                facts["actualarg"].add((node, i, arg))
        elif isinstance(stmt, Return) and stmt.var is not None:
            facts["returnvar"].add((meth, stmt.var))
    facts["calledge"].update(calls)
    return cfg, calls


def program_value_facts(
    program: JProgram, hierarchy: ClassHierarchy, facts: Facts
) -> None:
    """Add the program-global value facts (the entry method)."""
    facts["entrymethod"].add((program.entry,))


def extract_value_facts(
    program: JProgram, hierarchy: ClassHierarchy | None = None
) -> tuple[Facts, ICFG]:
    """Extract ICFG transfer facts for the flow-sensitive value analyses;
    returns them with the ICFG they were read from."""
    if hierarchy is None:
        hierarchy = ClassHierarchy(program)
    facts = _fresh(
        "flow", "assignlit", "assignmove", "assignbin", "havoc",
        "calledge", "formalarg", "actualarg", "returnvar", "callret",
        "entrynode", "exitnode", "entrymethod",
    )
    icfg = ICFG()
    for method in program.methods():
        cfg, calls = method_value_facts(method, hierarchy, facts)
        icfg.cfgs[method.qualified] = cfg
        icfg.call_edges |= calls
    program_value_facts(program, hierarchy, facts)
    return facts, icfg
