"""Integration tests for `repro check` and dead-rule pruning.

Covers the acceptance bars: zero errors across the bundled analyses and
example programs, documented codes with spans for the seeded-defect
fixtures, schema-valid ``--json`` output, a wall-clock budget, and the
engine-differential guarantee that pruning never changes exported views.
"""

import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.datalog import parse
from repro.engines import DRedLSolver, LaddderSolver, NaiveSolver, SemiNaiveSolver
from repro.metrics import SolverMetrics

REPO = Path(__file__).resolve().parents[2]
FIXTURES = REPO / "tests" / "fixtures"
EXAMPLES = sorted(str(p) for p in (REPO / "examples").glob("*.dl"))
REGISTRY = "tests.fixtures.check_registry:register"


def run_check(capsys, *argv):
    code = main(["check", *argv])
    return code, capsys.readouterr().out


class TestCheckCLI:
    def test_bundled_analyses_are_clean(self, capsys):
        code, out = run_check(capsys, "--all")
        assert code == 0, out
        assert " 0 error" in out

    def test_examples_are_clean(self, capsys):
        assert EXAMPLES, "expected .dl files under examples/"
        code, out = run_check(capsys, *EXAMPLES)
        assert code == 0, out

    def test_json_report_matches_schema(self, capsys, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        report_file = tmp_path / "report.json"
        code, _ = run_check(capsys, "--all", *EXAMPLES, "--json", str(report_file))
        assert code == 0
        report = json.loads(report_file.read_text())
        schema = json.loads((REPO / "docs" / "check_schema.json").read_text())
        jsonschema.validate(report, schema)
        assert report["exit_code"] == 0
        assert len(report["targets"]) == 8 + len(EXAMPLES)

    def test_check_stays_under_budget(self, capsys):
        # The CI job runs this on every push; keep the full sweep snappy.
        start = time.perf_counter()
        code, _ = run_check(capsys, "--all", *EXAMPLES)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 2.0, f"check took {elapsed:.2f}s"

    @pytest.mark.parametrize(
        "fixture, exit_code, code_, needle",
        [
            ("unsafe_rule.dl", 2, "DLC201", "head variable Y"),
            ("dead_rule.dl", 1, "DLC601", "dead rule"),
            ("lattice_mismatch.dl", 2, "DLC401", "lattice sort mismatch"),
            ("nonmono_agg.dl", 2, "DLC501", "well-behaving"),
            # Perf lints are info: the exit code stays 0.
            ("crossproduct.dl", 0, "DLC701", "cross product"),
            ("delta_unreachable.dl", 0, "DLC702", "no input (EDB) delta"),
            ("singleton.dl", 0, "DLC703", "occurs exactly once"),
            ("nonnoetherian.dl", 0, "DLC704", "non-Noetherian"),
        ],
    )
    def test_seeded_defects_report_documented_codes(
        self, capsys, fixture, exit_code, code_, needle
    ):
        path = FIXTURES / fixture
        got, out = run_check(capsys, str(path), "--registry", REGISTRY)
        assert got == exit_code
        assert code_ in out and needle in out
        # The text rendering cites the fixture file and a real line.
        assert f"{path}:" in out

    def test_seeded_defects_in_json(self, capsys):
        code, out = run_check(
            capsys,
            str(FIXTURES / "unsafe_rule.dl"),
            "--registry", REGISTRY,
            "--json", "-",
        )
        assert code == 2
        report = json.loads(out)
        [target] = report["targets"]
        [diag] = target["diagnostics"]
        assert diag["code"] == "DLC201"
        assert diag["span"]["source"].endswith("unsafe_rule.dl")
        assert diag["span"]["line"] == 6

    def test_bad_target_is_an_error(self, capsys):
        code, out = run_check(capsys, "no_such_file.dl")
        assert code == 2
        assert "DLC002" in out

    def test_diagnostics_name_their_producing_pass(self, capsys):
        code, out = run_check(
            capsys,
            str(FIXTURES / "unsafe_rule.dl"),
            str(FIXTURES / "singleton.dl"),
            "--registry", REGISTRY,
            "--json", "-",
        )
        assert code == 2
        report = json.loads(out)
        assert report["version"] == 2
        passes = {
            d["code"]: d["pass"]
            for t in report["targets"]
            for d in t["diagnostics"]
        }
        assert passes["DLC201"] == "safety"
        assert passes["DLC703"] == "perf"

    def test_impact_report_in_json(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        code, out = run_check(
            capsys, "constprop", "--impact", "--json", "-"
        )
        assert code == 0
        report = json.loads(out)
        schema = json.loads((REPO / "docs" / "check_schema.json").read_text())
        jsonschema.validate(report, schema)
        [target] = report["targets"]
        impact = target["impact"]
        assert impact["strata_total"] >= 2
        # Sparse control-flow edits stay inside the value stratum: the
        # footprint of `flow` must exclude at least the candidate stratum.
        flow = impact["edb"]["flow"]
        assert len(flow["strata"]) < impact["strata_total"]
        assert "val" in flow["lattice_merges"]
        # Without --impact the key is absent entirely.
        code, out = run_check(capsys, "constprop", "--json", "-")
        assert "impact" not in json.loads(out)["targets"][0]


DEAD_RULE_SOURCE = """
.export out.
out(X)     :- edge(X, Y), reach(Y).
reach(X)   :- start(X).
reach(Y)   :- reach(X), edge(X, Y).
scratch(X) :- edge(X, Y), edge(Y, X).
scrap(X)   :- scratch(X), start(X).
"""

#: The unpruned oracle: the same rules with the dead heads exported too, so
#: nothing is dead and every rule is planned and compiled.
LIVE_TWIN_SOURCE = DEAD_RULE_SOURCE.replace(
    ".export out.", ".export out, scratch, scrap."
)

EDB = {
    "edge": [(1, 2), (2, 3), (3, 1), (4, 4)],
    "start": [(1,), (4,)],
}


def solve(engine, source):
    metrics = SolverMetrics()
    solver = engine(parse(source), metrics=metrics)
    for pred, rows in EDB.items():
        solver.add_facts(pred, rows)
    solver.solve()
    return solver, metrics


class TestDeadRulePruning:
    @pytest.mark.parametrize(
        "engine", [NaiveSolver, SemiNaiveSolver, DRedLSolver, LaddderSolver]
    )
    def test_exported_views_bit_equal_with_and_without_pruning(self, engine):
        pruned, _ = solve(engine, DEAD_RULE_SOURCE)
        unpruned, _ = solve(engine, LIVE_TWIN_SOURCE)
        assert pruned.relations() == {"out": unpruned.relation("out")}
        assert pruned.relation("out")  # non-trivial result
        assert unpruned.relation("scrap")  # the twin evaluates the dead rules

    def test_pruning_skips_dead_rule_compilation(self):
        _, with_prune = solve(SemiNaiveSolver, DEAD_RULE_SOURCE)
        _, without = solve(SemiNaiveSolver, LIVE_TWIN_SOURCE)
        assert with_prune.dead_rules_pruned == 2
        assert without.dead_rules_pruned == 0
        assert with_prune.rules_compiled < without.rules_compiled
        assert with_prune.diagnostics_emitted >= 2  # DLC601/602 warnings
        assert with_prune.check_seconds > 0

    def test_updates_unaffected_by_pruning(self):
        pruned, _ = solve(LaddderSolver, DEAD_RULE_SOURCE)
        unpruned, _ = solve(LaddderSolver, LIVE_TWIN_SOURCE)
        for solver in (pruned, unpruned):
            solver.update(insertions={"edge": [(3, 4)]},
                          deletions={"start": [(4,)]})
        assert pruned.relations() == {"out": unpruned.relation("out")}
