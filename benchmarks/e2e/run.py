"""The repo benchmark: edit -> visible latency over the wire.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

drives the product path as a closed loop with one client (README.md) and
prints, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 4242, "failed": 0,
     "metrics": {"visible_p50_ms": {"value": 7.27, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  Everything else (sample counts, digests, the machine
fingerprint, with ``--trace 1`` every span) goes to ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: A run replays its cycles in passes until ``--seconds`` are used up, but
#: never fewer than this: the statistic is a minimum over passes.
MIN_PASSES = 5
#: A traced run spends its time on two passes of the product path alone
#: (the tracing-overhead reference) and then on ladder passes.
TRACE_UNTRACED_PASSES = 2
MIN_TRACED_PASSES = 2


def _bootstrap() -> None:
    """Make the program under test and this directory importable."""
    if any(name.startswith("REPRO_") for name in os.environ):
        names = sorted(n for n in os.environ if n.startswith("REPRO_"))
        raise SystemExit(
            f"refusing to run with {', '.join(names)} set: the numbers must "
            "describe the default configuration"
        )
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing")
    for path in (str(REPO_ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def pin_to_one_core() -> None:
    """Pin this process, and with it every server it spawns, to one core.

    The loop is closed with one client, so only one process of the chain
    client -> front end -> worker runs at a time.  Spread over two cores of
    a shared host every hop wakes a sleeping virtual CPU, which costs
    0.1-0.5 ms by the host's mood: unpinned, ``visible_p50_ms`` of
    ``tcp-cluster-mixed`` read 5.3-7.9 ms within minutes; on one core the
    hops are context switches and it reads 3.9-4.3 ms (README.md, "One
    core").
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibrate() -> float:
    """A fixed pure-Python loop: how fast is this core right now?"""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return perf_counter() - start


def _passes(run_one, seconds: float, started: float, minimum: int,
            fixed: int | None, calib: list[float]) -> list[dict]:
    """Run passes until the time budget is used up (or ``fixed`` many)."""
    records: list[dict] = []
    longest = 0.0
    while True:
        gc.collect()
        t0 = perf_counter()
        records.append(run_one())
        longest = max(longest, perf_counter() - t0)
        calib.append(calibrate())
        if fixed is not None:
            if len(records) >= fixed:
                return records
        elif (len(records) >= minimum
              and perf_counter() - started + longest > seconds):
            return records


def measure(workload, seed: int, seconds: float, traced: bool,
            passes: int | None = None, cycles: int | None = None) -> dict:
    """One run: all passes, the correctness checks, every metric."""
    import harness
    import layers

    pin_to_one_core()
    started = perf_counter()
    calib = [calibrate()]
    if cycles is None:
        # A traced cycle costs four to six untraced ones; half the cycles
        # leave time for more than the minimum of ladder passes.
        cycles = workload.cycles // 2 if traced else workload.cycles

    def one_pass(with_twins: bool):
        return lambda: harness.run_pass(
            workload, seed, with_twins, REPO_ROOT, OUT_DIR, cycles=cycles
        )

    alone = passes
    if traced:
        alone = min(passes or TRACE_UNTRACED_PASSES, TRACE_UNTRACED_PASSES)
    untraced = _passes(one_pass(False), seconds, started, MIN_PASSES, alone, calib)
    ladder = _passes(
        one_pass(True), seconds, started, MIN_TRACED_PASSES, passes, calib
    ) if traced else []
    records = untraced + ladder
    first = records[0]
    top = first["rungs"][0]
    edits = sum(source.edits for source in first["sources"])

    if workload.transport == "tcp":
        rss_mb = statistics.median(r["rss_mb"] for r in untraced)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness: every rung of every pass ends on the digest of a
    # from-scratch reference solve of the facts the client produced.
    t0 = perf_counter()
    expected = [source.reference() for source in first["sources"]]
    reference_solve_s = perf_counter() - t0
    errors = [e for r in records for e in r["errors"]]
    for number, record in enumerate(records):
        for rung, digests in zip(record["rungs"], record["digests"]):
            if digests != expected:
                errors.append(
                    f"pass {number} rung {rung}: digest {digests} differs "
                    f"from the reference {expected}"
                )
    attempted = sum(r["requests"] for r in records)
    failed = sum(r["failed"] for r in records)

    samples = layers.Samples([r["spans"] for r in untraced], cycles)
    metrics = layers.end_to_end(samples, top, edits)
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    detail = {
        "workload": workload.name,
        "seed": seed,
        "cycles": cycles,
        "edits": edits,
        "passes": len(untraced),
        "traced_passes": len(ladder),
        "samples": {
            "visible": len(samples.series("e2e.visible")),
            "query": len(samples.series(f"{top}.query")),
            "snapshot": len(samples.series(f"{top}.snapshot")),
        },
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": errors[:20],
        "digests": expected,
        "versions_published": [s["snapshot_version"] for s in first["final_stats"]],
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "calib_ms": min(calib) * 1e3,
        },
    }
    if traced:
        counts: dict = {}
        for slot in ladder[0]["parts"].slots:
            for name, value in harness.count_replay(workload, slot.log).items():
                counts[name] = counts.get(name, 0) + value
        end_to_end = metrics
        metrics = layers.per_layer(
            layers.Samples([r["spans"] for r in ladder], cycles), samples,
            ladder[0], counts, reference_solve_s, calib,
        )
        detail["end_to_end"] = _plain(end_to_end)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with open(OUT_DIR / f"trace-{workload.name}.json", "w") as handle:
            json.dump({
                "span": ["name", "cycle", "parent", "start", "end"],
                "passes": [r["spans"] for r in ladder],
            }, handle)
    detail["wall_s"] = perf_counter() - started
    detail["metrics"] = _plain(metrics)
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
        "detail": detail,
    }


def _plain(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds only EditStream(seed=...)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="time budget of the passes (at least "
                             f"{MIN_PASSES} are always run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report the per-layer metrics")
    parser.add_argument("--passes", type=int, default=None,
                        help="run exactly this many passes (smoke tests)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="override the workload's cycle count (smoke tests)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}"
        )
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        passes=args.passes, cycles=args.cycles,
    )
    detail = result.pop("detail")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(OUT_DIR / f"run-{args.workload}{suffix}.json", "w") as handle:
        json.dump(detail, handle, indent=1)
    for error in detail["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # String hashing decides the iteration order of the program's sets, and
    # with it how much work a solve does: set-up time alone moves by a factor
    # of 1.8 between hash seeds.  Pin it, for this process and the servers.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
