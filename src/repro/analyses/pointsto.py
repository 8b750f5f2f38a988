"""Whole-program points-to analyses (the Figure 1 family).

Three variants over the same Doop-style facts, differing only in the value
abstraction — exactly how Section 7 sets them up:

* :func:`singleton_pointsto` — the ``Bot ⊑ O(obj) ⊑ C(cls)`` domain of
  Figures 1/3/4 (k-update with k = 1, modelled with the class fallback).
* :func:`kupdate_pointsto` — concrete sets up to ``k`` objects, saturating
  to Top with signature-based resolution ("over-approximates to Top only if
  a points-to set grows beyond a fixed size k").  Eventually ⊑-monotonic:
  needs Laddder.
* :func:`setbased_pointsto` — the powerset analysis used for the DRedL
  comparison in Section 7.3 (per-rule monotone).

All three are context- and flow-insensitive but inter-procedural: the call
graph is derived *from* points-to results (``resolve``), parameters and
returns flow through resolved edges, and fields are modelled field-based
(one abstract cell per field name).
"""

from __future__ import annotations

from ..datalog.parser import parse
from ..datalog.program import Program
from ..javalite.ast import JProgram
from ..javalite.facts import extract_pointsto_facts
from ..lattices import C, KSetLattice, O, PowersetLattice, SingletonLattice, lub
from .base import AnalysisInstance, extracts

#: Rules shared by every variant: reachability, call resolution plumbing,
#: parameter/return flow, and field-based heap flow.  The variants provide
#: the ``resolve`` rules and the lattice injection ``objlat``.
_COMMON_RULES = """
    pt(V, L)    :- reach(M), alloc(V, Obj, M), L := objlat(Obj).
    pt(V, L)    :- move(V, F), ptlub(F, L).
    pt(This, L) :- resolve(_, _, This, L).
    ptlub(V, lub<L>) :- pt(V, L).

    reach(M) :- resolve(_, M, _, _).
    reach(M) :- scall(_, M, InM), reach(InM).
    reach(M) :- funcname(M, "main").

    resolvecall(Site, M) :- resolve(Site, M, _, _).
    resolvecall(Site, M) :- scall(Site, M, InM), reach(InM).

    pt(Frm, L) :- resolvecall(Site, M), actualarg(Site, I, Act),
                  formalarg(M, I, Frm), ptlub(Act, L).
    pt(Ret, L) :- resolvecall(Site, M), callret(Site, Ret),
                  returnvar(M, RV), ptlub(RV, L).

    fieldcand(F, L) :- storef(_, F, S), ptlub(S, L).
    fieldval(F, lub<L>) :- fieldcand(F, L).
    pt(V, L) :- loadf(V, _, F), fieldval(F, L).

    .export ptlub, reach, resolvecall.
"""


def _base_program(rules: str) -> Program:
    return parse(_COMMON_RULES + rules)


@extracts("pointsto")
def singleton_pointsto(subject: JProgram) -> AnalysisInstance:
    """Figure 1's lattice-based singleton points-to analysis."""
    facts, hierarchy = extract_pointsto_facts(subject)
    lattice = SingletonLattice(hierarchy)
    program = _base_program(
        """
        resolve(Site, M, This, L) :- ptlub(Rcv, L), vcall(Rcv, Sig, Site, InM),
            reach(InM), ?isobj(L), Obj := objof(L), otype(Obj, Cls),
            lookup(Cls, Sig, M), thisvar(M, This).
        resolve(Site, M, This, L) :- ptlub(Rcv, L), vcall(Rcv, Sig, Site, InM),
            reach(InM), ?iscls(L), Cls := clsof(L),
            lookupsub(Cls, Sig, M), thisvar(M, This).
        """
    )
    program.register_function("objlat", O)
    program.register_function("objof", lambda lat: lat.obj)
    program.register_function("clsof", lambda lat: lat.cls)
    program.register_test("isobj", lambda lat: isinstance(lat, O))
    program.register_test("iscls", lambda lat: isinstance(lat, C))
    program.register_aggregator("lub", lub(lattice))
    return AnalysisInstance(
        name="pointsto-singleton",
        program=program,
        facts=facts,
        primary="ptlub",
        subject=subject,
        context={"hierarchy": hierarchy, "lattice": lattice},
    )


@extracts("pointsto")
def kupdate_pointsto(subject: JProgram, k: int = 5) -> AnalysisInstance:
    """The k-update points-to analysis of Section 7 (default k = 5)."""
    facts, hierarchy = extract_pointsto_facts(subject)
    lattice = KSetLattice(k)
    program = _base_program(
        """
        resolve(Site, M, This, L2) :- ptlub(Rcv, S), vcall(Rcv, Sig, Site, InM),
            reach(InM), ?isconc(S), otype(Obj, Cls), ?inset(Obj, S),
            lookup(Cls, Sig, M), thisvar(M, This), L2 := mkset(Obj).
        resolve(Site, M, This, L2) :- ptlub(Rcv, S), vcall(Rcv, Sig, Site, InM),
            reach(InM), ?istop(S), lookupany(Sig, M), thisvar(M, This),
            L2 := ktop().
        lookupany(Sig, M) :- lookup(_, Sig, M).
        """
    )
    program.register_function("objlat", lambda obj: frozenset((obj,)))
    program.register_function("mkset", lambda obj: frozenset((obj,)))
    program.register_function("ktop", lambda: lattice.top())
    program.register_test("isconc", lattice.is_concrete)
    program.register_test("istop", lambda s: s == lattice.top())
    program.register_test("inset", lambda obj, s: obj in s)
    program.register_aggregator("lub", lub(lattice))
    return AnalysisInstance(
        name=f"pointsto-kupdate(k={k})",
        program=program,
        facts=facts,
        primary="ptlub",
        subject=subject,
        context={"hierarchy": hierarchy, "lattice": lattice, "k": k},
    )


@extracts("pointsto")
def setbased_pointsto(subject: JProgram) -> AnalysisInstance:
    """The powerset (set-based) points-to analysis of Section 7.3."""
    facts, hierarchy = extract_pointsto_facts(subject)
    lattice = PowersetLattice()
    program = _base_program(
        """
        resolve(Site, M, This, L2) :- ptlub(Rcv, S), vcall(Rcv, Sig, Site, InM),
            reach(InM), otype(Obj, Cls), ?inset(Obj, S),
            lookup(Cls, Sig, M), thisvar(M, This), L2 := mkset(Obj).
        """
    )
    program.register_function("objlat", lambda obj: frozenset((obj,)))
    program.register_function("mkset", lambda obj: frozenset((obj,)))
    program.register_test("inset", lambda obj, s: obj in s)
    program.register_aggregator("lub", lub(lattice))
    return AnalysisInstance(
        name="pointsto-setbased",
        program=program,
        facts=facts,
        primary="ptlub",
        subject=subject,
        context={"hierarchy": hierarchy, "lattice": lattice},
    )
