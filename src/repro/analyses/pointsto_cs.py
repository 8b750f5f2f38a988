"""Context-sensitive (1-call-site) k-update points-to analysis.

Doop's precision story revolves around context sensitivity; the paper's
benchmark analysis is context-insensitive ("context-insensitive,
flow-insensitive, yet inter-procedural"), so this variant is an extension:
every points-to judgment carries a *context* — the call site through which
the enclosing method was entered (1-call-site sensitivity, context strings
``"root"`` for the entry method).  The heap stays context-insensitive
(field cells are merged across contexts), the standard Doop configuration.

Relations mirror the insensitive analysis with a context column:

* ``reach(meth, ctx)`` — the method is analyzed under ``ctx``;
* ``ptlub(var, ctx, set)`` — the k-update points-to set of a local under
  the context of its enclosing method's activation;
* ``resolvecall(site, meth, ctx, calleectx)`` — the resolved call edge with
  the caller's and the callee's contexts (``calleectx`` = the site).

Still eventually ⊑-monotonic, so it runs on Laddder (and the reference
engines) unchanged — context sensitivity multiplies the tuple space, not
the solver requirements.
"""

from __future__ import annotations

from ..datalog.parser import parse
from ..javalite.ast import JProgram
from ..javalite.facts import extract_pointsto_facts
from ..lattices import KSetLattice, lub
from .base import AnalysisInstance, extracts

ROOT_CONTEXT = "root"

_RULES = """
    pt(V, Ctx, S)    :- reach(M, Ctx), alloc(V, Obj, M), S := mkset(Obj).
    pt(V, Ctx, S)    :- move(V, F), ptlub(F, Ctx, S).
    pt(This, CCtx, S) :- resolve(_, _, This, CCtx, S).
    ptlub(V, Ctx, lub<S>) :- pt(V, Ctx, S).

    resolve(Site, M, This, CCtx, S2) :- ptlub(Rcv, Ctx, S),
        vcall(Rcv, Sig, Site, InM), reach(InM, Ctx), ?isconc(S),
        otype(Obj, Cls), ?inset(Obj, S), lookup(Cls, Sig, M),
        thisvar(M, This), S2 := mkset(Obj), CCtx := pushctx(Site).
    resolve(Site, M, This, CCtx, S2) :- ptlub(Rcv, Ctx, S),
        vcall(Rcv, Sig, Site, InM), reach(InM, Ctx), ?istop(S),
        lookupany(Sig, M), thisvar(M, This), S2 := ktop(),
        CCtx := pushctx(Site).
    lookupany(Sig, M) :- lookup(_, Sig, M).

    resolvecall(Site, M, Ctx, CCtx) :- resolve(Site, M, _, CCtx, _),
        vcall(_, _, Site, InM), reach(InM, Ctx).
    resolvecall(Site, M, Ctx, CCtx) :- scall(Site, M, InM), reach(InM, Ctx),
        CCtx := pushctx(Site).

    reach(M, CCtx) :- resolvecall(_, M, _, CCtx).
    reach(M, Ctx)  :- funcname(M, "main"), Ctx := rootctx().

    pt(Frm, CCtx, S) :- resolvecall(Site, M, Ctx, CCtx),
        actualarg(Site, I, Act), formalarg(M, I, Frm), ptlub(Act, Ctx, S).
    pt(Ret, Ctx, S) :- resolvecall(Site, M, Ctx, CCtx), callret(Site, Ret),
        returnvar(M, RV), ptlub(RV, CCtx, S).

    fieldcand(F, S) :- storef(_, F, Src), ptlub(Src, _, S).
    fieldval(F, flub<S>) :- fieldcand(F, S).
    pt(V, Ctx, S) :- loadf(V, Base, F), ptlub(Base, Ctx, _), fieldval(F, S).

    .export ptlub, reach, resolvecall.
"""


@extracts("pointsto")
def onecall_pointsto(subject: JProgram, k: int = 5) -> AnalysisInstance:
    """Build the 1-call-site-sensitive k-update points-to analysis."""
    facts, hierarchy = extract_pointsto_facts(subject)
    lattice = KSetLattice(k)
    program = parse(_RULES)
    program.register_function("mkset", lambda obj: frozenset((obj,)))
    program.register_function("ktop", lambda: lattice.top())
    program.register_function("pushctx", lambda site: site)
    program.register_function("rootctx", lambda: ROOT_CONTEXT)
    program.register_test("isconc", lattice.is_concrete)
    program.register_test("istop", lambda s: s == lattice.top())
    program.register_test("inset", lambda obj, s: obj in s)
    program.register_aggregator("lub", lub(lattice))
    program.register_aggregator("flub", lub(lattice))
    return AnalysisInstance(
        name=f"pointsto-1cs(k={k})",
        program=program,
        facts=facts,
        primary="ptlub",
        subject=subject,
        context={"hierarchy": hierarchy, "lattice": lattice, "k": k},
    )
