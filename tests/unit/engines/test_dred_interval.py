"""DRedL's ``interval`` solve must equal the semi-naive reference (ROADMAP
item 3, step 1).

It does not today: under ``PYTHONHASHSEED`` 0 and 1, DRedL's solve of
minijavac exports 13 ``val`` rows that read ``Main.driver1/n2`` as
``[10,+inf]`` where ``T̂`` gives ``[8,+inf]`` (under seed 2 they agree).
The default ``"inflationary"`` mode already keeps every intermediate total,
so retracting advanced totals is not the whole cause.  Each seed runs in its
own process, since the seed fixes the order sets iterate in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SEEDS = (0, 1)

SOLVE = (
    "from repro.analyses import interval_analysis\n"
    "from repro.config import SolverConfig\n"
    "from repro.corpus import load_subject\n"
    "from repro.engines import DRedLSolver, SemiNaiveSolver\n"
    "instance = interval_analysis(load_subject('minijavac'))\n"
    "dredl, reference = (\n"
    "    instance.make_solver(engine, config=SolverConfig()).relation('val')\n"
    "    for engine in (DRedLSolver, SemiNaiveSolver)\n"
    ")\n"
    "for row in sorted(map(repr, dredl ^ reference)):\n"
    "    print(row)\n"
)


def _run(code: str, seed: int) -> str:
    src = Path(__file__).resolve().parents[3] / "src"
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
    # ``check=True``: a crash raises CalledProcessError, which the xfail
    # below does not forgive.
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: DRedL's interval solve differs from T̂ by seed",
)
def test_dredl_solves_interval_like_the_reference_under_every_seed():
    for seed in SEEDS:
        differing = _run(SOLVE, seed).splitlines()
        assert not differing, f"PYTHONHASHSEED={seed}: {len(differing)} rows"
