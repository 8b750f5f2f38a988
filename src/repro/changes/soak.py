"""Long-haul soak replay: edit streams with digest-checked checkpoints.

:func:`soak` drives one engine through a seeded
:class:`~repro.changes.stream.EditStream` — optionally mirroring every
edit into a live :class:`~repro.service.session.Session` — and, every
``checkpoint_every`` steps, re-solves the current fact state from scratch
with the reference semi-naive engine and compares snapshot digests
bit-for-bit.  Alongside correctness it records the drift gauges that
surface state-accretion bugs:

* ``timeline_entries`` / ``max_timeline_len`` (Laddder): total
  differential-count entries and the longest single timeline.
  ``timeline_entries - timeline_tuples`` (the *excess* over one entry
  per tuple) tracks the live multi-support structure: exact move-pair
  cancellation keeps it oscillating around the program's structural
  level instead of growing with edit count.  The harness samples the
  excess after every step and gates on its *flatness* — a least-squares
  slope fitted to the excess-vs-step series must not project more growth
  over the whole stream than one baseline's worth of excess.  A leak of
  even a fraction of an entry per edit fails the gate; structural
  oscillation passes.
* ``state_size`` (every engine): the engine's own cell-count gauge.
* queue/pending high-water marks (when a session is driven).

The subject program is deep-copied before editing: ``load_subject`` is
memoized and the pristine instance must stay pristine for the session
(which loads the same subject internally) and for later callers.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict

from ..analyses import ANALYSES
from ..config import SolverConfig
from ..corpus import load_subject
from ..engines import SemiNaiveSolver
from ..robustness import GuardedSolver
from ..service.session import ENGINES, Session, SessionConfig
from ..service.snapshot import take_snapshot
from .stream import EditStream, editor_for


def reference_digest(program, facts) -> str:
    """From-scratch semi-naive solve of ``facts``, digested.

    The oracle runs on ``SolverConfig()`` — defaults, not the environment —
    so a ``REPRO_*`` set for the engine under test cannot reach it.
    """
    reference = SemiNaiveSolver(program, config=SolverConfig())
    for pred, rows in facts.items():
        if rows and pred in reference.idb:
            continue  # extractor emitted a relation the rules derive
        reference.add_facts(pred, rows)
    reference.solve()
    return take_snapshot(reference, 0).digest()


def engine_gauges(inner) -> dict:
    """Engine state-size gauges; Laddder adds its timeline breakdown."""
    gauges = {"state_size": inner.state_size()}
    if hasattr(inner, "timeline"):  # Laddder
        entries = tuples = longest = 0
        for state in inner._states:
            for relation in state.relations.values():
                for timeline in relation.timelines.values():
                    n = len(timeline)
                    entries += n
                    tuples += 1
                    if n > longest:
                        longest = n
        gauges.update(
            timeline_entries=entries,
            timeline_tuples=tuples,
            timeline_excess=entries - tuples,
            max_timeline_len=longest,
        )
    return gauges


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``ys`` over ``xs`` (0.0 under two points)."""
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 0.0
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return numerator / denominator


def soak(
    subject: str,
    analysis: str,
    engine: str = "laddder",
    steps: int = 200,
    seed: int = 7,
    checkpoint_every: int = 25,
    scale: float = 1.0,
    config: SolverConfig | None = None,
    drive_session: bool = False,
    flush_size: int = 16,
    flush_latency: float = 0.005,
) -> dict:
    """Replay one seeded edit stream; returns the full soak record.

    The solver (and the session's, when driven) is built with ``config``.
    The record's ``ok`` field is the CI gate: every checkpoint digest
    (bare solver, and session when driven) equals the from-scratch
    reference, and on Laddder the timeline-excess gauge stayed flat over
    the stream (module docstring).
    """
    program = copy.deepcopy(load_subject(subject, scale=scale))
    instance = ANALYSES[analysis](program)
    inner = instance.make_solver(ENGINES[engine], solve=False, config=config)
    solver = GuardedSolver(inner, fallback=False)
    solver.solve()

    session = None
    if drive_session:
        session = Session(
            f"soak-{subject}-{analysis}-{engine}",
            SessionConfig(
                analysis=analysis,
                subject=subject,
                engine=engine,
                scale=scale,
                flush_size=flush_size,
                flush_latency=flush_latency,
            ),
            solver_config=inner.config,
        )

    facts = {pred: set(rows) for pred, rows in instance.facts.items()}
    editor = editor_for(program, analysis)
    stream = EditStream(editor, seed=seed)

    baseline = engine_gauges(inner)
    step_seconds: list[float] = []
    checkpoints: list[dict] = []
    excess_series: list[int] = []
    try:
        for index in range(steps):
            step = stream.step()
            step.change.apply_to(facts)
            started = time.perf_counter()
            solver.update(
                insertions=step.change.insertions,
                deletions=step.change.deletions,
            )
            step_seconds.append(time.perf_counter() - started)
            if session is not None:
                session.update(
                    insertions=step.change.insertions,
                    deletions=step.change.deletions,
                )
            gauges = engine_gauges(solver.solver)
            if "timeline_excess" in gauges:
                excess_series.append(gauges["timeline_excess"])
            if (index + 1) % checkpoint_every and index + 1 != steps:
                continue

            expected = reference_digest(instance.program, facts)
            digest = take_snapshot(solver, 0).digest()
            record = {
                "step": index + 1,
                "reference": expected,
                "digest": digest,
                "match": digest == expected,
                "gauges": gauges,
            }
            if session is not None:
                session.flush()
                record["session_digest"] = session.snapshot.digest()
                record["session_match"] = record["session_digest"] == expected
            checkpoints.append(record)
    finally:
        session_stats = None
        if session is not None:
            metrics = session.metrics
            session_stats = {
                "updates_enqueued": metrics.updates_enqueued,
                "updates_coalesced": metrics.updates_coalesced,
                "coalesce_ratio": metrics.coalesce_ratio,
                "batches_applied": metrics.batches_applied,
                "max_pending": metrics.max_pending,
                "failed_batches": session.failed_batches,
                "last_error": session.last_error,
            }
            session.close()

    digests_ok = all(
        c["match"] and c.get("session_match", True) for c in checkpoints
    )
    # Flatness gate: the slope of excess-vs-step (sampled after every
    # step), projected over the whole stream, must not exceed one
    # baseline's worth of excess (floor 16 for near-zero baselines).
    # Structural oscillation has slope ~0; a leak of even a fraction of an
    # entry per edit projects far past this.
    drift = _slope([float(s) for s in range(1, len(excess_series) + 1)],
                   [float(e) for e in excess_series]) * steps
    allowance = max(16.0, float(baseline.get("timeline_excess", 0)))
    excess_ok = not excess_series or drift <= allowance
    ordered = sorted(step_seconds)
    return {
        "subject": subject,
        "analysis": analysis,
        "engine": engine,
        "steps": steps,
        "seed": seed,
        "checkpoint_every": checkpoint_every,
        "config": asdict(inner.config),
        "edit_counts": stream.counts,
        "baseline_gauges": baseline,
        "final_gauges": engine_gauges(solver.solver),
        "latency_seconds": {
            "mean": sum(step_seconds) / len(step_seconds) if step_seconds else 0.0,
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "max": ordered[-1] if ordered else 0.0,
        },
        "checkpoints": checkpoints,
        "digests_ok": digests_ok,
        "excess_series": excess_series,
        "excess_drift": drift,
        "excess_allowance": allowance,
        "excess_ok": excess_ok,
        "session": session_stats,
        "ok": digests_ok and excess_ok and (
            session_stats is None or session_stats["failed_batches"] == 0
        ),
    }
