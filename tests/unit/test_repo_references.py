"""What the docs and the workflow name must exist (regex only, no YAML).

``benchmarks/`` means one thing — the experiments of DESIGN.md's table,
cited by EXPERIMENTS.md — and ``BENCHMARK.json`` (``benchmarks/e2e/``) is
the only performance gate.  These checks keep a renamed script, a deleted
results file or a revived ``BENCH_*.json`` from leaving a stale citation.
"""

import os
import re
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: The directories a citation may point into, plus the two that cite.
ROOTS = ("benchmarks", "tools", "tests", "docs", ".github", ".claude")
#: What running leaves behind (.gitignore); never descended.
LEFTOVERS = {"__pycache__", ".pytest_cache", ".hypothesis", "benchmarks/e2e/out"}


def _files():
    """Top-level files plus everything under ROOTS (no git needed)."""
    yield from (e.name for e in os.scandir(ROOT) if e.is_file())
    for root in ROOTS:
        for folder, dirs, names in os.walk(ROOT / root):
            rel = os.path.relpath(folder, ROOT)
            dirs[:] = [
                d for d in dirs if not {d, f"{rel}/{d}"} & LEFTOVERS
            ]
            for name in names:
                yield f"{rel}/{name}"


FILES = sorted(_files())

#: CHANGES.md and ROADMAP.md are history and may name what is gone.
CITING = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmarks/README.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
    *(f for f in FILES if re.fullmatch(r"docs/[^/]+\.md", f)),
]

#: A path or glob under one of the four cited directories; ``<name>`` and
#: ``{a,b}`` are not part of it, so write a ``*`` glob instead.
PATH = re.compile(r"(?<![\w/.-])(?:benchmarks|tools|tests|docs)/[\w./*-]*")

SCRIPT = re.compile(r"\bbench_\w+\.py\b")


def resolves(ref: str) -> bool:
    ref = ref.rstrip(".").rstrip("/")
    return any(
        f == ref or f.startswith(ref + "/") or fnmatchcase(f, ref) for f in FILES
    )


def test_experiment_scripts_match_their_tables():
    scripts = {Path(f).name for f in FILES if fnmatchcase(f, "benchmarks/bench_*.py")}
    table = "\n".join(
        line
        for line in (ROOT / "DESIGN.md").read_text().splitlines()
        if line.startswith("|")
    )
    assert set(SCRIPT.findall(table)) == scripts
    assert set(SCRIPT.findall((ROOT / "EXPERIMENTS.md").read_text())) == scripts


def test_cited_paths_exist():
    stale = [
        f"{citing}: {ref}"
        for citing in CITING
        for ref in PATH.findall((ROOT / citing).read_text())
        if not resolves(ref)
    ]
    assert not stale, stale


def test_no_recorded_bench_json_outside_the_benchmark():
    recorded = [
        f
        for f in FILES
        if fnmatchcase(Path(f).name, "BENCH_*.json")
        and not f.startswith("benchmarks/e2e/")
    ]
    assert not recorded, recorded


def test_ci_has_at_most_six_jobs():
    workflow = (ROOT / ".github/workflows/ci.yml").read_text()
    jobs = re.findall(r"^  ([\w-]+):\s*$", workflow.split("\njobs:\n", 1)[1], re.M)
    assert 1 <= len(jobs) <= 6, jobs
