#!/usr/bin/env python3
"""Taint tracking on top of incremental points-to.

The paper motivates points-to analysis as the substrate for client analyses
like taint analysis.  This example stacks a taint analysis (sources, sinks,
flow through *resolved* calls) on the k-update points-to analysis in one
Datalog program, runs it incrementally with Laddder, and shows how security
alerts appear and disappear in milliseconds as the code is edited.

Run:  python examples/taint_tracking.py
"""

import time

from repro.analyses.taint import taint_analysis
from repro.engines import LaddderSolver
from repro.javalite import JProgram, MethodBuilder, finalize, format_program, make_class


def build_webapp() -> JProgram:
    """A toy request handler:

    class Request { static String param() { ... } }        // SOURCE
    class Db { static void query(q) { ... } }               // SINK
    class Sanitizer { static String clean(s) { return ""; } }
    class Handler {
        static void handle() {
            raw = Request.param();
            name = raw;                       // tainted flow
            safe = Sanitizer.clean(raw);      // sanitized flow
            Db.query(name);                   // ALERT
            Db.query(safe);                   // ok
        }
    }
    """
    program = JProgram(entry="Handler.handle")

    request = make_class("Request")
    param = MethodBuilder("param", is_static=True)
    param.const("v", 1).ret("v")
    request.add_method(param.build())
    program.add_class(request)

    db = make_class("Db")
    query = MethodBuilder("query", params=("q",), is_static=True)
    query.ret("q")
    db.add_method(query.build())
    program.add_class(db)

    sanitizer = make_class("Sanitizer")
    clean = MethodBuilder("clean", params=("s",), is_static=True)
    clean.const("blank", 0).ret("blank")  # returns a fresh, clean value
    sanitizer.add_method(clean.build())
    program.add_class(sanitizer)

    handler = make_class("Handler")
    handle = MethodBuilder("handle", is_static=True)
    handle.scall("raw", "Request", "param")
    handle.move("name", "raw")
    handle.scall("safe", "Sanitizer", "clean", "raw")
    handle.scall("r1", "Db", "query", "name")
    handle.scall("r2", "Db", "query", "safe")
    handler.add_method(handle.build())
    program.add_class(handler)
    return finalize(program)


def show_alerts(solver) -> None:
    alerts = sorted(solver.relation("sink_alert"), key=repr)
    if not alerts:
        print("   no alerts — every sink argument is untainted")
    for site, var in alerts:
        print(f"   ALERT: tainted {var.rsplit('/', 1)[-1]} reaches sink at "
              f"{site}")


def main() -> None:
    subject = build_webapp()
    print("Subject program:\n")
    print(format_program(subject))

    analysis = taint_analysis(
        subject, sources={"Request.param"}, sinks={"Db.query"}
    )
    solver = analysis.make_solver(LaddderSolver)
    print("\nInitial taint state:")
    for var, level in sorted(solver.relation("taint"), key=repr):
        marker = "  <--" if level == "tainted" else ""
        print(f"   {var.rsplit('/', 1)[-1]:8s} {level}{marker}")
    show_alerts(solver)

    # Edit 1: the developer routes name through the sanitizer instead.
    move = next(row for row in analysis.facts["move"] if row[0].endswith("/name"))
    print("\n>> edit: name = raw  becomes  name = safe")
    start = time.perf_counter()
    solver.update(
        deletions={"move": {move}},
        insertions={"move": {(move[0], move[0].rsplit("/", 1)[0] + "/safe")}},
    )
    print(f"   ({(time.perf_counter() - start) * 1e3:.2f} ms)")
    show_alerts(solver)

    # Edit 2: someone marks the sanitizer itself as a source (supply-chain
    # scare) — alerts light up everywhere downstream.
    print("\n>> edit: Sanitizer.clean is now considered a taint source")
    start = time.perf_counter()
    solver.update(insertions={"taintsource": {("Sanitizer.clean",)}})
    print(f"   ({(time.perf_counter() - start) * 1e3:.2f} ms)")
    show_alerts(solver)

    # Edit 3: revert.
    print("\n>> edit: revert the scare")
    solver.update(deletions={"taintsource": {("Sanitizer.clean",)}})
    show_alerts(solver)


if __name__ == "__main__":
    main()
