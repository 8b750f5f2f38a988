#!/usr/bin/env python
"""Continuous-edit soak runner: replay seeded edit streams, gate on drift.

Runs :func:`repro.changes.soak.soak` over an engines × analyses matrix:
each cell replays one seeded edit stream against a live incremental
solver (optionally mirrored into a service session with ``--session``),
re-solves from scratch at every checkpoint, and fails unless

* every checkpoint digest is bit-equal to the from-scratch reference
  (bare solver and session view alike), and
* the Laddder timeline-excess gauge stayed flat over the stream (the
  state-accretion gate; see docs/SOAK.md).

Run as ``PYTHONPATH=src python tools/soak.py``; CI runs this as the soak
job.  Exits non-zero with a per-run summary on the first failing cell.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.changes.soak import soak  # noqa: E402
from repro.config import SolverConfig  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Replay seeded edit streams with digest-checked "
        "checkpoints and state-drift gates."
    )
    parser.add_argument("--subject", default="minijavac")
    parser.add_argument(
        "--analyses", default="constprop",
        help="comma-separated analysis names (default: constprop)",
    )
    parser.add_argument(
        "--engines", default="laddder",
        help="comma-separated engine names (default: laddder)",
    )
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--checkpoint-every", type=int, default=25)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--impact", default=None,
        help="comma-separated impact-scheduling modes to matrix over "
        "(on, off; default: on)",
    )
    parser.add_argument(
        "--self-check", action="store_true",
        help="run the guarded solver's invariant self-checks every epoch",
    )
    parser.add_argument(
        "--session", action="store_true",
        help="mirror every edit into a live service session too",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full soak records as JSON on stdout",
    )
    return parser.parse_args(argv)


def summarize(record: dict) -> str:
    latency = record["latency_seconds"]
    gauge = record["final_gauges"].get("timeline_excess")
    excess = "-" if gauge is None else (
        f"{record['baseline_gauges'].get('timeline_excess', 0)}->{gauge}"
    )
    return (
        f"{record['subject']}/{record['analysis']}/{record['engine']}"
        f"[impact={'on' if record['config']['impact'] else 'off'}]: "
        f"{'ok' if record['ok'] else 'FAIL'}  "
        f"steps={record['steps']} seed={record['seed']} "
        f"p50={latency['p50'] * 1e3:.1f}ms p95={latency['p95'] * 1e3:.1f}ms "
        f"excess={excess} "
        f"digests={'ok' if record['digests_ok'] else 'MISMATCH'}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    base = SolverConfig.from_env().with_request(self_check=args.self_check)
    impact_modes = ["on"]
    if args.impact:
        impact_modes = [m.strip() for m in args.impact.split(",") if m.strip()]
        for mode in impact_modes:
            if mode not in ("on", "off"):
                raise SystemExit(f"--impact modes are on/off, got {mode!r}")
    records = []
    for impact_mode in impact_modes:
        config = replace(base, impact=impact_mode == "on")
        for analysis in args.analyses.split(","):
            for engine in args.engines.split(","):
                record = soak(
                    args.subject,
                    analysis.strip(),
                    engine=engine.strip(),
                    steps=args.steps,
                    seed=args.seed,
                    checkpoint_every=args.checkpoint_every,
                    scale=args.scale,
                    config=config,
                    drive_session=args.session,
                )
                records.append(record)
                print(summarize(record), flush=True)
    if args.json:
        print(json.dumps(records, indent=2, default=str))
    failures = [r for r in records if not r["ok"]]
    if failures:
        for record in failures:
            bad = [c["step"] for c in record["checkpoints"]
                   if not (c["match"] and c.get("session_match", True))]
            print(
                f"FAIL {record['analysis']}/{record['engine']}: "
                f"bad checkpoints {bad}, "
                f"excess drift {record['excess_drift']:.2f} "
                f"(allowance {record['excess_allowance']:.1f})",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
