"""Whole-program taint analysis layered on points-to (a downstream client).

The paper's introduction motivates points-to as "a fundamental analysis
underpinning many other analyses, such as control-flow analysis or taint
analysis".  This analysis demonstrates that layering inside the solver
framework: its rules *consume the exported, pruned relations* of the
points-to component (``resolvecall``, ``reach``) from an upstream dependency
component — exercising stratified cross-component dataflow with lattice
exports — and add their own recursive aggregation over a taint lattice.

Model:

* sources — designated methods whose return value is tainted
  (``taintsource(meth)`` facts, by default every ``Util*.helper0``);
* propagation — through moves, binary operations, parameter passing and
  returns along *resolved* call edges (so precision follows the points-to
  call graph, not CHA);
* level lattice — ``untainted ⊑ tainted`` (a 2-chain); joins make any
  mixed flow tainted.

Exported: ``taint(var, level)`` — the pruned per-variable taint level, and
``sink_alert(site, var)`` for tainted actuals flowing into sink methods.
"""

from __future__ import annotations

from ..datalog.parser import parse
from ..javalite.ast import JProgram
from ..lattices import ChainLattice, lub
from .base import AnalysisInstance, extracts
from .pointsto import kupdate_pointsto

LEVELS = ChainLattice(["untainted", "tainted"])

_TAINT_RULES = """
    tcand(Ret, L) :- taintsource(M), resolvecall(Site, M), callret(Site, Ret),
                     L := tainted().
    tcand(To, L)  :- tmove(To, From), taint(From, L).
    tcand(Frm, L) :- resolvecall(Site, M), actualarg(Site, I, Act),
                     formalarg(M, I, Frm), taint(Act, L).
    tcand(Ret, L) :- resolvecall(Site, M), !taintsource(M), callret(Site, Ret),
                     returnvar(M, RV), taint(RV, L).
    tcand(V, L)   :- seedvar(V), L := untaintedv().

    // Taint flows along the same moves as values.  Every data-flow variable
    // starts untainted, so taint/2 carries a level for each of them
    // (Bot-as-absent would also be sound, but explicit levels make the
    // exported relation self-describing).  Both are derived from the
    // extracted facts, so a source edit reaches them.
    tmove(To, From) :- move(To, From).
    seedvar(V) :- move(V, _).
    seedvar(V) :- move(_, V).
    seedvar(V) :- alloc(V, _, _).
    seedvar(V) :- actualarg(_, _, V).
    seedvar(V) :- callret(_, V).
    seedvar(V) :- formalarg(_, _, V).
    seedvar(V) :- returnvar(_, V).

    taint(V, lubt<L>) :- tcand(V, L).

    sink_alert(Site, Act) :- taintsink(M), resolvecall(Site, M),
                             actualarg(Site, _, Act), taint(Act, L),
                             ?istainted(L).

    .export taint, sink_alert.
"""


@extracts(kupdate_pointsto.schema)
def taint_analysis(
    subject: JProgram,
    sources: set[str] | None = None,
    sinks: set[str] | None = None,
    k: int = 5,
) -> AnalysisInstance:
    """Build the taint analysis stacked on the k-update points-to analysis.

    ``sources``/``sinks`` are qualified method names; defaults pick the
    first utility helper as source and the last driver as sink so generated
    corpora have flows out of the box.
    """
    base = kupdate_pointsto(subject, k=k)
    program = base.program.copy()
    parse(_TAINT_RULES, program=program)
    program.register_function("tainted", lambda: "tainted")
    program.register_function("untaintedv", lambda: "untainted")
    program.register_test("istainted", lambda level: level == "tainted")
    program.register_aggregator("lubt", lub(LEVELS))
    program.exports = (program.exports or set()) | {
        "taint", "sink_alert", "resolvecall", "reach", "ptlub",
    }

    facts = {pred: set(rows) for pred, rows in base.facts.items()}
    methods = sorted(m.qualified for m in subject.methods())
    if sources is None:
        sources = {m for m in methods if m.endswith(".helper0")} or set(methods[:1])
    if sinks is None:
        drivers = [m for m in methods if ".driver" in m]
        sinks = {drivers[-1]} if drivers else set()
    facts["taintsource"] = {(m,) for m in sources}
    facts["taintsink"] = {(m,) for m in sinks}

    return AnalysisInstance(
        name=f"taint(on k={k} points-to)",
        program=program,
        facts=facts,
        primary="taint",
        subject=subject,
        context={**base.context, "sources": sources, "sinks": sinks},
    )
