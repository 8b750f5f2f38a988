"""Unit tests for the static change-impact index (repro.datalog.impact)."""

import pytest

from repro.datalog import parse
from repro.datalog.impact import ImpactIndex

#: Three strata: base reachability, a negation consumer, and a static
#: configuration chain fed by a fact rule (no EDB ancestor).
SOURCE = """
.export reach.
.export lonely.
.export mode.

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
lonely(X)   :- node(X), !reach(X, X).
config(1).
mode(X)     :- config(X).
"""


@pytest.fixture()
def index():
    return ImpactIndex(parse(SOURCE))


class TestClosure:
    def test_edb_and_idb_partition(self, index):
        assert index.edb == {"edge", "node"}
        assert index.idb == {"reach", "lonely", "config", "mode"}

    def test_forward_closure_follows_negation(self, index):
        # edge feeds reach positively and lonely through !reach; the source
        # itself is excluded (it is not on a cycle).
        assert index.affected_predicates("edge") == {"reach", "lonely"}
        assert index.affected_predicates("node") == {"lonely"}

    def test_static_chain_is_not_edb_reachable(self, index):
        assert "mode" not in index.delta_reachable
        assert "config" not in index.delta_reachable
        assert "reach" in index.delta_reachable

    def test_closures_are_component_closed(self, index):
        for pred in index.edb:
            affected = index.affected_predicates(pred)
            strata = index.affected_strata(pred)
            assert strata
            for stratum in strata:
                assert index.components[stratum].predicates <= affected


class TestReport:
    def test_report_shape(self, index):
        report = index.report()
        assert set(report["edb"]) == {"edge", "node"}
        assert report["strata_total"] == len(index.components)
        # The mode rule is the one no delta can reach.
        assert report["unreachable_rules"] == 1
        negated = [e for e in report["edges"] if e["negated"]]
        assert [(e["src"], e["dst"]) for e in negated] == [("reach", "lonely")]

    def test_lattice_merges_tracked(self):
        from repro.analyses import constant_propagation
        from repro.corpus import load_subject

        instance = constant_propagation(load_subject("minijavac", scale=0.2))
        index = ImpactIndex(instance.program)
        report = index.report()
        assert "val" in report["edb"]["assignlit"]["lattice_merges"]
        merge_edges = [e for e in report["edges"] if e["merge"]]
        assert any(e["dst"] == "val" for e in merge_edges)
