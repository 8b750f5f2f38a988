"""The one solver configuration (docs/PERFORMANCE.md, "Configuration").

Everything that selects *how* a solver evaluates is a field of one frozen
:class:`SolverConfig`, handed to ``Solver.__init__`` and carried unchanged
through guard fallback, checkpoint restore, sessions and the CLI.
:meth:`SolverConfig.from_env` is the only reader of solver-related
``REPRO_*`` environment names in ``src/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Mapping

from .datalog.errors import SolverError


def _flag(name: str, raw: str) -> bool:
    if raw not in ("", "0", "1"):
        raise SolverError(f"{name} must be 0 or 1, got {raw!r}")
    return raw == "1"


def _positive(name: str, raw: str) -> int | None:
    if raw and not (raw.isdecimal() and int(raw) > 0):
        raise SolverError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw) if raw else None


#: field -> (environment name, parser); the other fields have none.
_ENV = {
    "self_check": ("REPRO_SELF_CHECK", _flag),
    "max_iterations": ("REPRO_MAX_ITERS", _positive),
    "max_chain": ("REPRO_MAX_CHAIN", _positive),
}


@dataclass(frozen=True)
class SolverConfig:
    """How a solver evaluates; what it computes never depends on it
    (exported views are bit-equal under every value)."""

    #: Validate engine invariants after every stratum (docs/ROBUSTNESS.md).
    self_check: bool = False
    #: Watchdog budgets (repro.robustness.watchdog.Budget); None leaves the
    #: engine's ceiling, the Budget's default chain length, no deadline.
    max_iterations: int | None = None
    max_chain: int | None = None
    deadline: float | None = None
    # Tests and oracles only from here: no environment name, no CLI flag.
    #: Evaluate through the ``run_plan`` interpreter, the reference the
    #: compiled kernels are differentially tested against.
    interpret: bool = False

    def with_request(self, self_check=False, deadline=None):
        """This configuration with what a request (an ``open`` op, CLI
        flags) asked for on top: a request switches features on, never off."""
        return replace(
            self,
            self_check=self.self_check or self_check,
            deadline=self.deadline if deadline is None else deadline,
        )

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ, **overrides):
        """The configuration ``environ`` asks for; ``overrides`` win.
        Flags are off for ``""``/``"0"`` and on for ``"1"``; a malformed
        value raises :class:`SolverError` naming the variable."""
        values = {
            field: parse(name, environ.get(name, "").strip())
            for field, (name, parse) in _ENV.items()
        }
        return cls(**{**values, **overrides})
