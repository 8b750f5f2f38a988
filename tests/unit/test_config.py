"""``SolverConfig``: the one parser, and the one object every layer hands on."""

import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import repro
from repro.config import SolverConfig
from repro.datalog.errors import SolverError
from repro.robustness import GuardedSolver, inject
from repro.service import Session, SessionConfig

from .engines.helpers import load, tc_facts, tc_program

DEFAULTS = asdict(SolverConfig())

#: (environment, the fields it moves off their defaults)
ENV_TABLE = [
    ({}, {}),
    ({"REPRO_PROVENANCE": " 1 "}, {"provenance": True}),
    ({"REPRO_MAX_ITERS": " 12 "}, {"max_iterations": 12}),
    ({"REPRO_MAX_CHAIN": ""}, {}),
    ({"REPRO_PROVENANCE": ""}, {}),
    ({"REPRO_PROVENANCE": "0"}, {}),
    ({"REPRO_PROVENANCE": "1"}, {"provenance": True}),
    ({"REPRO_SELF_CHECK": ""}, {}),
    ({"REPRO_SELF_CHECK": "0"}, {}),
    ({"REPRO_SELF_CHECK": "1"}, {"self_check": True}),
    ({"REPRO_MAX_ITERS": ""}, {}),
    ({"REPRO_MAX_ITERS": "7"}, {"max_iterations": 7}),
    ({"REPRO_MAX_CHAIN": "9"}, {"max_chain": 9}),
    (
        {"REPRO_PROVENANCE": "1", "REPRO_SELF_CHECK": "1", "REPRO_MAX_ITERS": "3"},
        {"provenance": True, "self_check": True, "max_iterations": 3},
    ),
    # Names that are not configuration (or not any more) are not read.
    ({"REPRO_BACKEND": "columnar"}, {}),
    ({"REPRO_FAULT": "kernel.emit", "REPRO_UNHEARD_OF": "x"}, {}),
]

MALFORMED = [
    ("REPRO_PROVENANCE", "yes"),
    ("REPRO_SELF_CHECK", "true"),
    ("REPRO_SELF_CHECK", "2"),
    ("REPRO_MAX_ITERS", "zero"),
    ("REPRO_MAX_ITERS", "0"),
    ("REPRO_MAX_ITERS", "-3"),
    ("REPRO_MAX_CHAIN", "1.5"),
]


class TestFromEnv:
    @pytest.mark.parametrize("environ,moved", ENV_TABLE)
    def test_table(self, environ, moved):
        assert asdict(SolverConfig.from_env(environ)) == {**DEFAULTS, **moved}

    @pytest.mark.parametrize("name,raw", MALFORMED)
    def test_malformed_names_the_variable(self, name, raw):
        with pytest.raises(SolverError, match=name):
            SolverConfig.from_env({name: raw})

    def test_overrides_win(self):
        environ = {"REPRO_SELF_CHECK": "1", "REPRO_PROVENANCE": "1"}
        config = SolverConfig.from_env(
            environ, provenance=False, deadline=2.5, interpret=True
        )
        assert config == SolverConfig(
            self_check=True, deadline=2.5, interpret=True
        )

    def test_default_environ_is_the_process_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_CHAIN", "11")
        assert SolverConfig.from_env().max_chain == 11

    def test_frozen_and_validated(self):
        config = SolverConfig()
        with pytest.raises(AttributeError):
            config.provenance = True
        with pytest.raises(TypeError):
            SolverConfig.from_env({}, replan_factor=2.0)

    def test_cli_reports_a_configuration_mistake_as_exit_2(
        self, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_MAX_ITERS", "many")
        assert main(["analyze", "sign", "minijavac"]) == 2
        assert "REPRO_MAX_ITERS" in capsys.readouterr().err


class _GuardedEnviron(dict):
    """``os.environ`` stand-in: a ``REPRO_*`` read from any module but the
    two that own environment names fails the test."""

    OWNERS = {"repro.config", "repro.robustness.faults"}

    def _check(self, key):
        reader = sys._getframe(2).f_globals.get("__name__")
        if str(key).startswith("REPRO_") and reader not in self.OWNERS:
            raise AssertionError(f"{reader} read {key} from the environment")

    def get(self, key, default=None):
        self._check(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._check(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._check(key)
        return super().__contains__(key)


def test_engines_read_no_environment(engine_cls, config, monkeypatch):
    """Solve + update of every engine with a hostile environment
    installed: nothing below ``from_env`` looks at it."""
    monkeypatch.setattr(
        os, "environ", _GuardedEnviron(os.environ, REPRO_SELF_CHECK="nonsense")
    )
    with pytest.raises(AssertionError, match="read REPRO_SELF_CHECK"):
        os.environ.get("REPRO_SELF_CHECK")
    solver = load(engine_cls, tc_program(), tc_facts({(1, 2), (2, 3)}), config)
    assert solver.config is config
    solver.update(insertions={"edge": {(3, 4)}}, deletions={"edge": {(1, 2)}})
    assert solver.relation("tc") == frozenset({(2, 3), (3, 4), (2, 4)})


def test_no_environ_read_under_engines_or_watchdog():
    root = Path(repro.__file__).parent
    sources = [*(root / "engines").rglob("*.py"), root / "robustness" / "watchdog.py"]
    assert len(sources) > 10
    offenders = [str(p) for p in sources if "os.environ" in p.read_text()]
    assert offenders == []


ODD = SolverConfig(
    provenance=True,
    self_check=True,
    max_iterations=50_000,
    max_chain=4_000,
    deadline=120.0,
    impact=False,
)


def test_fields_reach_the_solver():
    solver = load(repro.LaddderSolver, tc_program(), tc_facts({(1, 2)}), ODD)
    assert solver.provenance is not None
    assert solver.self_check and solver.impact is None
    budget = solver.budget
    assert (budget.max_iterations, budget.max_chain, budget.deadline) == (
        50_000, 4_000, 120.0
    )
    interpreted = replace(ODD, interpret=True)
    assert repro.LaddderSolver(tc_program(), config=interpreted).kernels.interpret
    assert not solver.kernels.interpret


def test_config_survives_guard_fallback(engine_cls):
    solver = load(engine_cls, tc_program(), tc_facts({(1, 2), (2, 3)}), ODD)
    guarded = GuardedSolver(solver, fallback=True)
    with inject("kernel.emit"):
        guarded.update(insertions={"edge": {(3, 4)}})
    reference = guarded.solver
    assert reference is not solver and solver.metrics.fallback_resolves == 1
    assert type(reference).__name__ == "SemiNaiveSolver"
    assert reference.config == solver.config == ODD
    assert reference.provenance is not None and reference.self_check
    assert reference.budget.max_iterations == 50_000
    assert (1, 4) in guarded.relation("tc")


class TestSession:
    @staticmethod
    def open(solver_config=None, **overrides):
        fields = dict(
            analysis="constprop", subject="minijavac", engine="laddder",
            flush_size=10_000, flush_latency=600.0,
        )
        fields.update(overrides)
        return Session("cfg", SessionConfig(**fields), solver_config=solver_config)

    def test_request_goes_on_top_of_the_process_configuration(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROVENANCE", "1")
        monkeypatch.setenv("REPRO_MAX_ITERS", "90000")
        session = self.open(self_check=True, deadline=30.0)
        try:
            # provenance=False in the request is "not asked for", and the
            # environment's opt-in stands.
            want = SolverConfig.from_env(self_check=True, deadline=30.0)
            assert want.provenance and want.max_iterations == 90_000
            assert session.solver.config == want
            assert session.stats()["solver_config"] == asdict(want)
        finally:
            session.close()

    def test_config_survives_restore(self, tmp_path):
        plain = self.open(SolverConfig(max_iterations=50_000))
        try:
            path = tmp_path / "plain.ckpt"
            plain.save(path)
        finally:
            plain.close()
        # Saved without annotations, restored by a capturing, self-checking
        # session: both the warm start and ``restore`` build the solver with
        # the session's configuration.
        session = self.open(
            SolverConfig(max_iterations=50_000),
            provenance=True, self_check=True, deadline=30.0,
            restore_from=str(path),
        )
        try:
            want = SolverConfig(
                max_iterations=50_000, provenance=True, self_check=True,
                deadline=30.0,
            )
            assert session.solver.config == want
            assert session.solver.provenance is not None
            session.restore(path)
            inner = session.solver.solver
            assert inner.config == want
            assert inner.provenance is not None and inner.self_check
            assert inner.budget.deadline == 30.0
            assert session.stats()["solver_config"]["max_iterations"] == 50_000
        finally:
            session.close()
