"""Shared benchmark configuration and reporting helpers.

Environment knobs (all optional):

* ``REPRO_BENCH_SUBJECTS`` — comma-separated subset of
  minijavac,antlr,emma,pmd,ant (default: all five).
* ``REPRO_BENCH_CHANGES``  — change *pairs* per series (default 20, i.e.
  40 measured changes; the paper used 1000 on a JVM).
* ``REPRO_BENCH_SCALE``    — global corpus scale factor (default 1.0).

Each experiment prints its paper-style table and also writes it to
``benchmarks/results/<name>.txt``, and nothing else: a table is an
illustration recorded on one machine, not a gate (see ``README.md`` here).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analyses import (
    constant_propagation,
    interval_analysis,
    kupdate_pointsto,
    setbased_pointsto,
)
from repro.changes import alloc_site_changes, literal_to_zero_changes
from repro.corpus import SUBJECT_ORDER, load_subject

RESULTS_DIR = Path(__file__).parent / "results"

SUBJECTS = [
    s
    for s in os.environ.get("REPRO_BENCH_SUBJECTS", ",".join(SUBJECT_ORDER)).split(",")
    if s
]
CHANGE_PAIRS = int(os.environ.get("REPRO_BENCH_CHANGES", "20"))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: The three analyses of Section 7, with their change generators.
ANALYSIS_SERIES = {
    "pointsto-kupdate": (kupdate_pointsto, alloc_site_changes),
    "constprop": (constant_propagation, literal_to_zero_changes),
    "interval": (interval_analysis, literal_to_zero_changes),
}


def subject(name: str):
    return load_subject(name, scale=SCALE)


def make_changes(generator, instance, seed: int = 42):
    return generator(instance, CHANGE_PAIRS, seed=seed)


def report(name: str, text: str) -> None:
    """Print a results table and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

