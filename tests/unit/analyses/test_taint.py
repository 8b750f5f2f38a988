"""Unit tests for the taint analysis layered on points-to."""

import pytest

from repro.analyses.taint import taint_analysis
from repro.engines import LaddderSolver, NaiveSolver
from repro.javalite import JProgram, MethodBuilder, finalize, make_class


def build_flow_program() -> JProgram:
    """main: raw = Source.get(); clean = 7; x = raw; Sink.put(x);
    Sink.put(clean)."""
    program = JProgram(entry="Main.main")

    source = make_class("Source", superclass=None)
    get = MethodBuilder("get", is_static=True)
    get.const("v", 1).ret("v")
    source.add_method(get.build())
    program.add_class(source)

    sink = make_class("Sink")
    put = MethodBuilder("put", params=("p",), is_static=True)
    put.ret("p")
    sink.add_method(put.build())
    program.add_class(sink)

    main_cls = make_class("Main")
    main = MethodBuilder("main", is_static=True)
    main.scall("raw", "Source", "get")
    main.const("clean", 7)
    main.move("x", "raw")
    main.scall("r1", "Sink", "put", "x")
    main.scall("r2", "Sink", "put", "clean")
    main_cls.add_method(main.build())
    program.add_class(main_cls)
    return finalize(program)


@pytest.fixture
def instance():
    return taint_analysis(
        build_flow_program(),
        sources={"Source.get"},
        sinks={"Sink.put"},
    )


class TestTaintFlow:
    def test_source_return_is_tainted(self, instance):
        solver = instance.make_solver(LaddderSolver)
        taint = dict(solver.relation("taint"))
        assert taint["Main.main/raw"] == "tainted"
        assert taint["Main.main/x"] == "tainted"
        assert taint["Main.main/clean"] == "untainted"

    def test_taint_flows_through_call_and_back(self, instance):
        solver = instance.make_solver(LaddderSolver)
        taint = dict(solver.relation("taint"))
        # The parameter of Sink.put receives both flows: joined to tainted.
        assert taint["Sink.put/p"] == "tainted"
        # r1's value returns through put(p); tainted.  r2 gets put's return
        # too — context-insensitivity merges them (sound, imprecise).
        assert taint["Main.main/r1"] == "tainted"

    def test_sink_alert_only_for_tainted_actual(self, instance):
        solver = instance.make_solver(LaddderSolver)
        alerted_vars = {var for _site, var in solver.relation("sink_alert")}
        assert "Main.main/x" in alerted_vars
        assert "Main.main/clean" not in alerted_vars

    def test_matches_reference(self, instance):
        assert (
            instance.make_solver(LaddderSolver).relations()
            == instance.make_solver(NaiveSolver).relations()
        )

    def test_incremental_source_removal(self, instance):
        solver = instance.make_solver(LaddderSolver)
        stats = solver.update(deletions={"taintsource": {("Source.get",)}})
        taint = dict(solver.relation("taint"))
        assert taint["Main.main/raw"] == "untainted"
        assert solver.relation("sink_alert") == frozenset()
        assert stats.impact > 0
        # and back
        solver.update(insertions={"taintsource": {("Source.get",)}})
        assert dict(solver.relation("taint"))["Main.main/x"] == "tainted"

    def test_incremental_flow_edit(self, instance):
        """Cutting the move x = raw detaints the sink argument."""
        solver = instance.make_solver(LaddderSolver)
        move = next(
            row for row in instance.facts["move"] if row[0].endswith("/x")
        )
        solver.update(deletions={"move": {move}})
        alerted_vars = {var for _s, var in solver.relation("sink_alert")}
        assert "Main.main/x" not in alerted_vars


class TestOnGeneratedCorpus:
    def test_corpus_defaults(self):
        from repro.corpus import load_subject

        instance = taint_analysis(load_subject("minijavac"))
        solver = instance.make_solver(LaddderSolver)
        taint = dict(solver.relation("taint"))
        tainted = sum(1 for level in taint.values() if level == "tainted")
        assert 0 < tainted < len(taint)
        assert (
            solver.relations()
            == instance.make_solver(NaiveSolver).relations()
        )

    def test_taint_follows_pointsto_call_graph(self):
        """Taint propagates only along *resolved* calls: deleting the
        allocation that made a receiver dispatch kills downstream taint."""
        from repro.corpus import load_subject

        instance = taint_analysis(load_subject("minijavac"))
        laddder = instance.make_solver(LaddderSolver)
        before = sum(
            1 for _v, level in laddder.relation("taint") if level == "tainted"
        )
        sources = instance.facts["taintsource"]
        laddder.update(deletions={"taintsource": set(sources)})
        after = sum(
            1 for _v, level in laddder.relation("taint") if level == "tainted"
        )
        assert after == 0 and before > 0
