"""Shared fixture programs for engine tests.

Each helper returns a fresh ``Program`` (with registered aggregators and
functions) plus fact sets, so tests can run identical inputs through every
engine and compare exported results.
"""

from __future__ import annotations

from repro.datalog import Program, parse
from repro.lattices import (
    ConstantLattice,
    DictHierarchy,
    O,
    PowersetLattice,
    SingletonLattice,
    lub,
)

CONST = ConstantLattice()


def tc_program() -> Program:
    """Transitive closure — plain recursive Datalog, no lattices."""
    return parse(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        """
    )


def tc_facts(edges) -> dict[str, set[tuple]]:
    return {"edge": set(edges)}


def same_generation_program() -> Program:
    """Non-linear recursion with two recursive occurrences (self-join)."""
    return parse(
        """
        sg(X, X) :- person(X).
        sg(X, Y) :- parent(X, PX), sg(PX, PY), parent(Y, PY).
        """
    )


def const_prop_program() -> Program:
    """A tiny flow-insensitive constant propagation over assignments.

    ``lit(V, N)`` assigns literal N to V; ``copy(V, W)`` assigns W to V.
    ``val(V, lub<C>)`` is the constant-lattice value of V.
    """
    p = parse(
        """
        cval(V, C) :- lit(V, N), C := const(N).
        cval(V, C) :- copy(V, W), val(W, C).
        val(V, lub<C>) :- cval(V, C).
        .export val.
        """
    )
    p.register_function("const", lambda n: ConstantLattice.const(n))
    p.register_aggregator("lub", lub(CONST))
    return p


def shortest_path_program() -> Program:
    """Min-cost paths via a downward chain aggregation on path length.

    Uses a bounded cost domain so the aggregation is well-behaving on an
    infinite-looking input (costs cap at 99).
    """
    from repro.lattices import ChainLattice, glb

    chain = ChainLattice(list(range(100)))
    p = parse(
        """
        dcand(X, Y, C) :- arc(X, Y, C).
        dcand(X, Z, C) :- dist(X, Y, C1), arc(Y, Z, C2), C := capadd(C1, C2).
        dist(X, Y, glbc<C>) :- dcand(X, Y, C).
        .export dist.
        """
    )
    p.register_function("capadd", lambda a, b: min(a + b, 99))
    p.register_aggregator("glbc", glb(chain))
    return p


def figure1_hierarchy() -> DictHierarchy:
    """The class hierarchy of Figure 3."""
    return DictHierarchy(
        {
            "Object": None,
            "Session": "Object",
            "Factory": "Object",
            "DefaultFactory": "Factory",
            "CustomFactory": "Factory",
            "DelegatingFactory": "Factory",
            "Executor": "Object",
        },
        {"S": "Session", "F1": "DefaultFactory", "F2": "CustomFactory"},
    )


def singleton_pointsto_program(hierarchy: DictHierarchy | None = None) -> Program:
    """The lattice-based points-to analysis of Figure 1, verbatim.

    Relations (facts): ``alloc(var, obj, meth)``, ``move(to, from)``,
    ``vcall(rcv, sig, site, inMeth)``, ``otype(obj, cls)``,
    ``lookup(cls, sig, meth)``, ``lookupsub(cls, sig, meth)``,
    ``thisvar(meth, this)``, ``funcname(meth, name)``.
    """
    if hierarchy is None:
        hierarchy = figure1_hierarchy()
    lattice = SingletonLattice(hierarchy)
    p = parse(
        """
        pt(V, L)    :- reach(M), alloc(V, Obj, M), L := objlat(Obj).
        pt(V, L)    :- move(V, F), ptlub(F, L).
        pt(This, L) :- resolve(_, This, L).
        ptlub(V, lub<L>) :- pt(V, L).
        resolve(M, This, L) :- ptlub(Rcv, L), vcall(Rcv, Sig, _, InM),
                               reach(InM), ?isobj(L), Obj := objof(L),
                               otype(Obj, Cls), lookup(Cls, Sig, M),
                               thisvar(M, This).
        resolve(M, This, L) :- ptlub(Rcv, L), vcall(Rcv, Sig, _, InM),
                               reach(InM), ?iscls(L), Cls := clsof(L),
                               lookupsub(Cls, Sig, M), thisvar(M, This).
        reach(M) :- resolve(M, _, _).
        reach(M) :- funcname(M, "main").
        .export ptlub, reach.
        """
    )
    p.register_function("objlat", lambda obj: O(obj))
    p.register_function("objof", lambda lat: lat.obj)
    p.register_function("clsof", lambda lat: lat.cls)
    p.register_test("isobj", lambda lat: isinstance(lat, O))
    from repro.lattices import C as CCls

    p.register_test("iscls", lambda lat: isinstance(lat, CCls))
    p.register_aggregator("lub", lub(lattice))
    return p


def figure3_facts() -> dict[str, set[tuple]]:
    """The subject program of Figure 3 as input facts.

    Methods: ``run`` (main), ``proc`` (Session.proc), and the three factory
    ``init`` overrides.  Abstract objects: S, F1, F2.
    """
    return {
        "alloc": {
            ("s", "S", "run"),
            ("f", "F1", "proc"),
            ("c", "F2", "proc"),
        },
        "move": {
            ("s1", "s"),
            ("s2", "s"),
            ("f", "c"),
        },
        "vcall": {
            ("s1", "proc", "s1.proc()", "run"),
            ("s2", "proc", "s2.proc()", "run"),
            ("thisSession", "proc", "this.proc()", "proc"),
            ("f", "init", "f.init()", "proc"),
        },
        "otype": {
            ("S", "Session"),
            ("F1", "DefaultFactory"),
            ("F2", "CustomFactory"),
        },
        "lookup": {
            ("Session", "proc", "proc"),
            ("DefaultFactory", "init", "initDefFactory"),
            ("CustomFactory", "init", "initCusFactory"),
            ("DelegatingFactory", "init", "initDelFactory"),
        },
        "lookupsub": {
            # lookup in all subclasses of the class (Figure 1's
            # LookupInSubclasses): Factory has three overriding subclasses.
            ("Factory", "init", "initDefFactory"),
            ("Factory", "init", "initCusFactory"),
            ("Factory", "init", "initDelFactory"),
            ("Session", "proc", "proc"),
        },
        "thisvar": {
            ("proc", "thisSession"),
            ("initDefFactory", "thisDefFactory"),
            ("initCusFactory", "thisCusFactory"),
            ("initDelFactory", "thisDelFactory"),
        },
        "funcname": {("run", "main")},
    }


def kupdate_pointsto_program(k: int = 1) -> Program:
    """The k-update points-to analysis (Section 7).

    Points-to sets stay concrete up to ``k`` objects and saturate to KTop
    beyond; concrete sets resolve calls per object, saturated sets fall back
    to signature-based resolution over every override (``lookupany``).  The
    concrete-resolution rule is conditioned on the aggregate staying
    concrete, so the analysis is only *eventually* ⊑-monotonic: it needs
    Laddder's relaxed aggregation semantics and cannot run on DRedL.
    """
    from repro.lattices import KSetLattice

    lattice = KSetLattice(k)
    p = parse(
        """
        pt(V, S)    :- reach(M), alloc(V, Obj, M), S := mkset(Obj).
        pt(V, S)    :- move(V, F), ptk(F, S).
        pt(This, S) :- resolve(_, This, S).
        ptk(V, lubk<S>) :- pt(V, S).
        resolve(M, This, S2) :- ptk(Rcv, S), vcall(Rcv, Sig, _, InM),
                                reach(InM), ?isconc(S), otype(Obj, Cls),
                                ?inset(Obj, S), lookup(Cls, Sig, M),
                                thisvar(M, This), S2 := mkset(Obj).
        resolve(M, This, S2) :- ptk(Rcv, S), vcall(Rcv, Sig, _, InM),
                                reach(InM), ?istop(S), lookupany(Sig, M),
                                thisvar(M, This), S2 := ktop().
        lookupany(Sig, M) :- lookup(_, Sig, M).
        reach(M) :- resolve(M, _, _).
        reach(M) :- funcname(M, "main").
        .export ptk, reach.
        """
    )
    p.register_function("mkset", lambda obj: frozenset((obj,)))
    p.register_function("ktop", lambda: lattice.top())
    p.register_test("isconc", lattice.is_concrete)
    p.register_test("istop", lambda s: s == lattice.top())
    p.register_test("inset", lambda obj, s: obj in s)
    p.register_aggregator("lubk", lub(lattice))
    return p


def kupdate_nofallback_program(k: int = 1) -> Program:
    """k-update *without* the saturated fallback rule.

    Saturation then retracts resolutions without any dominating
    re-derivation — the recursion has no Ross–Sagiv fixpoint at all on
    feedback-shaped inputs, so delete/re-derive solvers oscillate forever
    under every ordering (the clean, deterministic form of the divergence
    the paper reports for IncA's DRedL).  Inflationary semantics still
    terminates: Laddder keeps the pre-saturation derivations.
    """
    from repro.lattices import KSetLattice

    lattice = KSetLattice(k)
    p = parse(
        """
        pt(V, S)    :- reach(M), alloc(V, Obj, M), S := mkset(Obj).
        pt(V, S)    :- move(V, F), ptk(F, S).
        pt(This, S) :- resolve(_, This, S).
        ptk(V, lubk<S>) :- pt(V, S).
        resolve(M, This, S2) :- ptk(Rcv, S), vcall(Rcv, Sig, _, InM),
                                reach(InM), ?isconc(S), otype(Obj, Cls),
                                ?inset(Obj, S), lookup(Cls, Sig, M),
                                thisvar(M, This), S2 := mkset(Obj).
        reach(M) :- resolve(M, _, _).
        reach(M) :- funcname(M, "main").
        .export ptk, reach.
        """
    )
    p.register_function("mkset", lambda obj: frozenset((obj,)))
    p.register_test("isconc", lattice.is_concrete)
    p.register_test("inset", lambda obj, s: obj in s)
    p.register_aggregator("lubk", lub(lattice))
    return p


def kupdate_cyclic_facts() -> dict[str, set[tuple]]:
    """Facts where saturation feeds back into reachability: main allocates
    O1 into v and calls v.m(); A1.m allocates O2 into w; w flows back into
    v.  With k=1 the set saturates, retracting the concrete resolution that
    made A1.m reachable in the first place — the eventually-monotone cycle
    that breaks per-rule-monotonic solvers."""
    return {
        "alloc": {("v", "O1", "main"), ("w", "O2", "mA1")},
        "move": {("v", "w")},
        "vcall": {("v", "m", "site1", "main")},
        "otype": {("O1", "A1"), ("O2", "A2")},
        "lookup": {("A1", "m", "mA1"), ("A2", "m", "mA2")},
        "thisvar": {("mA1", "thisA1"), ("mA2", "thisA2")},
        "funcname": {("main", "main")},
    }


def load(solver_cls, program: Program, facts: dict[str, set[tuple]], config=None):
    """Build a solver, stage facts, and solve."""
    solver = solver_cls(program, config=config)
    for pred, rows in facts.items():
        solver.add_facts(pred, rows)
    solver.solve()
    return solver


def singleton_pointsto4_program(hierarchy: DictHierarchy | None = None) -> Program:
    """Figure 1 with the paper's 4-ary ``Resolve(site, meth, this, lat)``.

    Keeping the call site in Resolve reproduces the Figure 4 trace and the
    Figure 5 Reach(proc) timelines verbatim (the 3-ary variant merges the
    s1/s2 derivations one relation earlier).
    """
    if hierarchy is None:
        hierarchy = figure1_hierarchy()
    lattice = SingletonLattice(hierarchy)
    p = parse(
        """
        pt(V, L)    :- reach(M), alloc(V, Obj, M), L := objlat(Obj).
        pt(V, L)    :- move(V, F), ptlub(F, L).
        pt(This, L) :- resolve(_, _, This, L).
        ptlub(V, lub<L>) :- pt(V, L).
        resolve(Site, M, This, L) :- ptlub(Rcv, L), vcall(Rcv, Sig, Site, InM),
                               reach(InM), ?isobj(L), Obj := objof(L),
                               otype(Obj, Cls), lookup(Cls, Sig, M),
                               thisvar(M, This).
        resolve(Site, M, This, L) :- ptlub(Rcv, L), vcall(Rcv, Sig, Site, InM),
                               reach(InM), ?iscls(L), Cls := clsof(L),
                               lookupsub(Cls, Sig, M), thisvar(M, This).
        reach(M) :- resolve(_, M, _, _).
        reach(M) :- funcname(M, "main").
        .export ptlub, reach.
        """
    )
    p.register_function("objlat", lambda obj: O(obj))
    p.register_function("objof", lambda lat: lat.obj)
    p.register_function("clsof", lambda lat: lat.cls)
    p.register_test("isobj", lambda lat: isinstance(lat, O))
    from repro.lattices import C as CCls

    p.register_test("iscls", lambda lat: isinstance(lat, CCls))
    p.register_aggregator("lub", lub(lattice))
    return p


def setbased_pointsto_program() -> Program:
    """Powerset (set-based) points-to — the Section 7.3 comparison analysis."""
    p = parse(
        """
        pts(V, S)   :- reach(M), alloc(V, Obj, M), S := mkset(Obj).
        pts(V, S)   :- move(V, F), ptset(F, S).
        pts(This, S) :- resolve(_, This, Obj), S := mkset(Obj).
        ptset(V, lubset<S>) :- pts(V, S).
        resolve(M, This, Obj) :- ptset(Rcv, S), vcall(Rcv, Sig, _, InM),
                                 reach(InM), ?inset(Obj, S), otype(Obj, Cls),
                                 lookup(Cls, Sig, M), thisvar(M, This).
        reach(M) :- resolve(M, _, _).
        reach(M) :- funcname(M, "main").
        .export ptset, reach.
        """
    )
    p.register_function("mkset", lambda obj: frozenset((obj,)))
    p.register_test("inset", lambda obj, s: obj in s)
    p.register_aggregator("lubset", lub(PowersetLattice()))
    return p
