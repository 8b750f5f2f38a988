"""Command-line interface: ``python -m repro``.

Subcommands mirroring the library's main workflows:

* ``analyze``  — run one of the five analyses on a benchmark subject (or a
  scaled variant) with a chosen engine; print exported relations.
* ``impact``   — the Section 3 methodology: synthesize changes, measure
  impacts, print the Figure 2 histogram.
* ``bench``    — a one-shot update-time measurement (init + change series
  distribution) without the pytest harness.
* ``check``    — static diagnostics (docs/STATIC_CHECKS.md) for bundled
  analyses and/or ``.dl`` source files; exit 2 on errors, 1 on warnings.
* ``serve``    — the resident analysis service (docs/SERVICE.md): long-
  lived sessions behind a JSON-lines protocol over stdio or a TCP socket.

Examples::

    python -m repro analyze pointsto-kupdate minijavac
    python -m repro analyze constprop antlr --engine seminaive --limit 10
    python -m repro analyze sign minijavac --profile
    python -m repro impact interval minijavac --changes 20
    python -m repro bench pointsto-kupdate pmd --engine dredl
    python -m repro bench constprop minijavac --profile-json profile.json
    python -m repro check --all
    python -m repro check examples/reachability.dl --json -
    python -m repro serve
    python -m repro serve --host 127.0.0.1 --port 8750

``analyze`` and ``bench`` accept ``--profile`` (per-stratum and per-rule
solver metrics as an ASCII table) and ``--profile-json FILE`` (the same
data in the JSON schema of docs/OBSERVABILITY.md; ``-`` for stdout).

``serve``, ``analyze``, and ``bench`` shut down gracefully on SIGINT or
SIGTERM: in-flight work is drained or abandoned cleanly, ``--profile-json``
metrics collected so far are still written, and the process exits with the
documented interrupt code instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analyses import ANALYSES
from .datalog.errors import (
    BudgetExceededError,
    CheckpointError,
    DatalogError,
    InvariantViolationError,
    RetryExhaustedError,
    RollbackError,
    ShutdownRequested,
    SolverError,
    WorkerCrashError,
)
from .bench import (
    DISTRIBUTION_HEADERS,
    Distribution,
    distribution_row,
    format_table,
    run_update_benchmark,
)
from .changes import alloc_site_changes, literal_to_zero_changes
from .config import SolverConfig
from .corpus import PRESETS, load_subject
from .engines import explain
from .methodology import bucket_impacts, format_histogram, measure_impacts
from .metrics import SolverMetrics, format_profile
from .robustness import GuardedSolver
from .service import install_signal_handlers
from .service.session import ENGINES

#: Exit code for a SIGINT/SIGTERM-interrupted run that unwound cleanly
#: (in-flight batches drained, profile flushed) — docs/SERVICE.md.
EXIT_INTERRUPTED = 7

#: Exit codes for the typed failure modes (documented in docs/ROBUSTNESS.md
#: and docs/SERVICE.md).
EXIT_CODES = {
    BudgetExceededError: 3,
    InvariantViolationError: 4,
    CheckpointError: 5,
    RollbackError: 6,
    ShutdownRequested: EXIT_INTERRUPTED,
    WorkerCrashError: 8,
    RetryExhaustedError: 9,
}


def _changes_for(instance, count: int, seed: int):
    if instance.primary == "val":
        return literal_to_zero_changes(instance, count, seed=seed)
    return alloc_site_changes(instance, count, seed=seed)


def _build(args):
    subject = load_subject(args.subject, scale=args.scale)
    instance = ANALYSES[args.analysis](subject)
    return subject, instance


def _make_metrics(args) -> SolverMetrics | None:
    """A collector when ``--profile``/``--profile-json`` asked for one."""
    if args.profile or args.profile_json:
        return SolverMetrics()
    return None


def _solver_config(args) -> SolverConfig:
    """The environment's configuration with the ``guarded`` flags on top."""
    return SolverConfig.from_env().with_request(
        self_check=args.self_check, deadline=args.deadline
    )


def _emit_profile(args, metrics: SolverMetrics | None) -> None:
    if metrics is None:
        return
    if args.profile:
        print()
        print(format_profile(metrics))
    if args.profile_json:
        payload = json.dumps(metrics.to_dict(), indent=2, sort_keys=True)
        if args.profile_json == "-":
            print(payload)
        else:
            try:
                with open(args.profile_json, "w") as handle:
                    handle.write(payload + "\n")
            except OSError as exc:
                print(f"error: cannot write profile: {exc}", file=sys.stderr)
                return
            print(f"profile written to {args.profile_json}")


def _interrupted(args, metrics: SolverMetrics | None, exc) -> int:
    """Graceful-shutdown epilogue for ``analyze``/``bench``: report, flush
    any partial ``--profile``/``--profile-json`` metrics, exit code 7."""
    print(f"interrupted: {exc}; flushing metrics and exiting cleanly",
          file=sys.stderr)
    _emit_profile(args, metrics)
    return EXIT_INTERRUPTED


def cmd_analyze(args) -> int:
    """``analyze``: run and print an analysis result relation."""
    from pathlib import Path

    from .engines.checkpoint import load_checkpoint, save_checkpoint

    subject, instance = _build(args)
    engine = ENGINES[args.engine]
    metrics = _make_metrics(args)
    build = dict(metrics=metrics, config=_solver_config(args))
    ckpt = Path(args.checkpoint) if args.checkpoint else None
    start = time.perf_counter()
    restored = ckpt is not None and ckpt.exists()
    restore_signals = install_signal_handlers()
    try:
        if restored:
            inner = load_checkpoint(engine, instance.program, ckpt, **build)
        else:
            inner = instance.make_solver(engine, solve=False, **build)
        solver = GuardedSolver(inner) if args.guard else inner
        if not restored:
            solver.solve()
            if ckpt is not None:
                save_checkpoint(inner, ckpt)
    except ShutdownRequested as exc:
        return _interrupted(args, metrics, exc)
    finally:
        restore_signals()
    elapsed = time.perf_counter() - start
    source = "restored from checkpoint in" if restored else ""
    print(
        f"{instance.name} on {args.subject} "
        f"({subject.statement_count()} stmts) via {engine.__name__}: "
        f"{source} {elapsed:.2f}s".replace(":  ", ": ")
    )
    rows = sorted(solver.relation(instance.primary), key=repr)
    shown = rows if args.limit is None else rows[: args.limit]
    for row in shown:
        print("  " + ", ".join(repr(v) for v in row))
    if args.limit is not None and len(rows) > args.limit:
        print(f"  ... ({len(rows) - args.limit} more)")
    print(f"{len(rows)} tuples in {instance.primary}")
    _emit_profile(args, metrics)
    return 0


def cmd_impact(args) -> int:
    """``impact``: the Section 3 methodology as a one-shot report."""
    _subject, instance = _build(args)
    changes = _changes_for(instance, args.changes, args.seed)
    records = measure_impacts(instance, changes)
    print(f"impact of {len(records)} changes on {instance.primary}:")
    print(format_histogram(bucket_impacts(records)))
    return 0


def cmd_bench(args) -> int:
    """``bench``: init + update-time distribution for one configuration."""
    _subject, instance = _build(args)
    engine = ENGINES[args.engine]
    changes = _changes_for(instance, args.changes, args.seed)
    metrics = _make_metrics(args)
    restore_signals = install_signal_handlers()
    try:
        run = run_update_benchmark(
            instance, engine, changes, metrics=metrics,
            config=_solver_config(args), guard=args.guard,
        )
    except ShutdownRequested as exc:
        return _interrupted(args, metrics, exc)
    finally:
        restore_signals()
    dist = Distribution.of(run.update_times())
    print(f"init: {run.init_seconds * 1e3:.1f} ms")
    print(
        format_table(
            DISTRIBUTION_HEADERS,
            [distribution_row(f"{args.analysis}@{args.subject}", dist.row())],
            title=f"update times (ms), {engine.__name__}",
        )
    )
    _emit_profile(args, metrics)
    return 0


def _write_explain_json(args, payload: dict) -> int:
    """Emit the ``--json`` artifact (schema: docs/explain_schema.json)."""
    if not args.json:
        return 0
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
        return 0
    try:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    print(f"report written to {args.json}")
    return 0


def _parse_cli_row(args) -> tuple | None:
    """``--row`` as a JSON array of scalars, or None when not given."""
    if args.row is None:
        return None
    try:
        row = json.loads(args.row)
    except ValueError as exc:
        raise SolverError(f"--row must be a JSON array: {exc}") from exc
    if not isinstance(row, list):
        raise SolverError(f"--row must be a JSON array, got {row!r}")
    return tuple(row)


def cmd_explain(args) -> int:
    """``explain``: derivations, why-not frontiers, rollback suggestions.

    Default mode prints a minimum-height derivation of a selected result
    tuple, reconstructed on demand (docs/PROVENANCE.md).
    ``--whynot`` explains an *absent* tuple instead; ``--rollback`` adds
    verified input-edit suggestions that remove the selected tuple.
    """
    from .provenance import suggest_rollbacks, whynot
    from .service.snapshot import match_rows, order_rows

    _subject, instance = _build(args)
    try:
        solver = instance.make_solver(ENGINES[args.engine])
        row = _parse_cli_row(args)

        if args.whynot:
            if row is None:
                print("error: --whynot requires --row", file=sys.stderr)
                return 1
            report = whynot(solver, args.predicate or instance.primary, row)
            print(report.format())
            return _write_explain_json(args, {"whynot": report.to_dict()})

        pred = args.predicate or instance.primary
        _keys, rows = order_rows(solver.relation(pred))
        if row is not None:
            rows = list(match_rows(rows, row))
            if not rows:
                print(
                    f"{pred}{row} is not derived; try --whynot",
                    file=sys.stderr,
                )
                return 1
        if args.match:
            rows = [r for r in rows if args.match in repr(r)]
        if not rows:
            print(f"no tuples in {pred} matching {args.match!r}")
            return 1

        target = rows[0]
        derivation = explain(solver, pred, target, max_depth=args.depth)
        print(f"why {pred}{target}:")
        print(derivation.format(indent=1))
        if len(rows) > 1:
            print(f"({len(rows) - 1} more matching tuples; narrow with --match)")
        payload = {"explain": derivation.to_dict()}

        if args.rollback:
            suggestions = suggest_rollbacks(solver, pred, target)
            if suggestions:
                print("rollback suggestions:")
                for suggestion in suggestions:
                    print(f"  - {suggestion.format()}")
            else:
                print("no verified rollback suggestions "
                      "(no deletable input support)")
            payload["rollback"] = [s.to_dict() for s in suggestions]
        return _write_explain_json(args, payload)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_serve(args) -> int:
    """``serve``: the resident analysis service (docs/SERVICE.md).

    Default is JSON-lines over stdio; ``--port`` starts a TCP socket server
    instead (``--port 0`` binds an ephemeral port and prints it).  Both
    drain every session — including a batch mid-apply — before exiting, on
    end-of-input, a ``shutdown`` request, SIGINT, or SIGTERM.

    ``--workers N`` shards sessions across N supervised worker processes
    with crash recovery from each session's base file and batch log
    (spooled under ``--spool``); a termination signal is forwarded to the
    whole worker tree, which drains before the front end exits with the
    usual interrupt code 7.
    """
    from .service import (
        ClusterConfig,
        ClusterService,
        ServiceProtocol,
        ServiceServer,
        serve_stdio,
    )

    cluster = None
    if args.workers is not None:
        cluster = ClusterService(
            ClusterConfig(workers=args.workers, spool=args.spool)
        )
        pids = " ".join(
            f"{slot}={pid}" for slot, pid in sorted(cluster.worker_pids().items())
        )
        print(f"repro serve cluster: {pids}", flush=True)
        protocol = cluster
    else:
        protocol = ServiceProtocol()
    def stop(signum, frame):
        # Forward the signal to the worker tree first: workers drain
        # their sessions on SIGTERM exactly like the front end does, so
        # one signal takes the whole process tree down gracefully.
        if cluster is not None:
            cluster.terminate_workers()
        raise ShutdownRequested(f"received signal {signum}")

    if args.port is not None:
        server = ServiceServer(args.host, args.port, protocol)
        print(f"repro serve listening on {server.host}:{server.port}",
              flush=True)

        restore_signals = install_signal_handlers(stop)
        try:
            # run() drains every session on its way out, exception or not.
            server.run()
        except ShutdownRequested as exc:
            print(f"interrupted: {exc}; sessions drained", file=sys.stderr)
            return EXIT_INTERRUPTED
        finally:
            restore_signals()
        return 0

    restore_signals = install_signal_handlers(stop)
    try:
        serve_stdio(protocol, sys.stdin, sys.stdout)
    except ShutdownRequested as exc:
        # serve_stdio already drained the sessions on its way out.
        print(f"interrupted: {exc}; sessions drained", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        restore_signals()
    return 0


def _load_registry_hook(spec: str):
    """Resolve a ``module:function`` spec to a callable taking a Program.

    The hook runs after parsing each ``.dl`` target and registers whatever
    the source needs — aggregators, Eval functions, Test predicates — since
    those live outside the textual syntax."""
    import importlib

    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(f"--registry expects module:function, got {spec!r}")
    module = importlib.import_module(module_name)
    hook = getattr(module, attr)
    if not callable(hook):
        raise ValueError(f"{spec} is not callable")
    return hook


def _check_one_target(target: str, args, subjects: dict):
    """Check one ``check`` target; returns ``(display_name, CheckResult)``.

    A target is either a bundled analysis name (checked against the default
    subject's program) or a path to a ``.dl`` source file."""
    from .datalog import Span, check_program, parse
    from .datalog.check import CheckResult, Diagnostic
    from .datalog.errors import ParseError

    deep = not args.fast
    if target in ANALYSES:
        subject = subjects.get(args.subject)
        if subject is None:
            subject = subjects[args.subject] = load_subject(args.subject)
        program = ANALYSES[target](subject).program
        return target, check_program(
            program, normalize_first=True, deep=deep, impact=args.impact
        )

    try:
        with open(target) as handle:
            source = handle.read()
    except OSError as exc:
        result = CheckResult()
        result.diagnostics.append(
            Diagnostic(
                code="DLC002",
                severity="error",
                message=f"cannot read {target}: {exc.strerror or exc}",
                span=Span(source=target),
                hint="pass a bundled analysis name or a .dl file path",
            )
        )
        return target, result
    try:
        program = parse(source, source_name=target)
    except ParseError as exc:
        result = CheckResult()
        result.diagnostics.append(
            Diagnostic(
                code="DLC001",
                severity="error",
                message=str(exc),
                span=Span(source=target),
                hint="fix the syntax error; later passes need a parse tree",
            )
        )
        return target, result
    if args.registry:
        _load_registry_hook(args.registry)(program)
    return target, check_program(
        program, normalize_first=True, deep=deep, impact=args.impact
    )


def cmd_check(args) -> int:
    """``check``: static diagnostics, human-readable or ``--json``.

    Exit code is the worst finding across all targets: 2 for errors, 1 for
    warnings only, 0 for a clean bill (info diagnostics never fail a run).
    """
    targets = list(args.targets)
    if args.all:
        targets = sorted(ANALYSES) + targets
    if not targets:
        print("error: no targets (pass analysis names, .dl paths, or --all)",
              file=sys.stderr)
        return 2

    try:
        subjects: dict = {}
        checked = [_check_one_target(t, args, subjects) for t in targets]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    worst = max(result.exit_code() for _, result in checked)
    if args.json:
        payload = {
            "version": 2,
            "exit_code": worst,
            "targets": [
                {"name": name, **result.to_dict()} for name, result in checked
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")
            print(f"report written to {args.json}")
        return worst

    from .datalog.check import Diagnostic

    for name, result in checked:
        counts = ", ".join(
            f"{sum(1 for d in result.diagnostics if d.severity == sev)} {sev}"
            for sev in ("error", "warning", "info")
        )
        dead = f", {len(result.dead_rules)} dead rules" if result.dead_rules else ""
        print(f"{name}: {counts}{dead} ({result.seconds * 1e3:.1f} ms)")
        for diag in sorted(result.diagnostics, key=Diagnostic.sort_key):
            print("  " + diag.format().replace("\n", "\n  "))
        if args.report and result.report:
            for entry in result.report:
                engines = ", ".join(
                    eng for eng, ok in entry["engines"].items() if ok
                )
                preds = ", ".join(entry["predicates"])
                print(f"  stratum {entry['component']} [{preds}]: {engines}"
                      + (f" — {entry['note']}" if entry["note"] else ""))
        if args.impact and result.impact:
            total = result.impact["strata_total"]
            for pred, entry in sorted(result.impact["edb"].items()):
                strata = entry["strata"]
                merges = entry["lattice_merges"]
                line = (
                    f"  impact {pred}: {len(entry['predicates'])} preds, "
                    f"{entry['rules']} rules, "
                    f"{len(strata)}/{total} strata"
                )
                if merges:
                    line += f", merges through {', '.join(merges)}"
                print(line)
            unreachable = result.impact["unreachable_rules"]
            if unreachable:
                print(f"  impact: {unreachable} delta-unreachable rule(s)")
    return worst


def make_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Laddder reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("analysis", choices=sorted(ANALYSES))
        p.add_argument("subject", choices=sorted(PRESETS))
        p.add_argument("--scale", type=float, default=1.0,
                       help="corpus scale factor")
        p.add_argument("--seed", type=int, default=42)

    def profiled(p):
        p.add_argument("--profile", action="store_true",
                       help="print per-stratum/per-rule solver metrics")
        p.add_argument("--profile-json", metavar="FILE", default=None,
                       help="write solver metrics as JSON (use - for stdout)")

    def guarded(p):
        p.add_argument("--deadline", type=float, metavar="SECONDS",
                       default=None,
                       help="wall-clock budget per solve/update; exceeding "
                            "it raises instead of hanging (exit code 3)")
        p.add_argument("--self-check", action="store_true",
                       help="validate engine invariants between strata "
                            "(slow; exit code 4 on violation)")
        p.add_argument("--guard", action="store_true",
                       help="run updates transactionally with rollback and "
                            "from-scratch fallback on failure")

    analyze = sub.add_parser("analyze", help="run an analysis, print results")
    common(analyze)
    profiled(analyze)
    guarded(analyze)
    analyze.add_argument("--engine", choices=sorted(ENGINES), default="laddder")
    analyze.add_argument("--limit", type=int, default=20,
                         help="max tuples to print (use -1 for all)")
    analyze.add_argument("--checkpoint", metavar="FILE", default=None,
                         help="restore solver state from FILE if it exists, "
                              "else solve and save it there (exit code 5 on "
                              "a corrupt or mismatched file)")
    analyze.set_defaults(fn=cmd_analyze)

    impact = sub.add_parser("impact", help="Section 3 impact methodology")
    common(impact)
    impact.add_argument("--changes", type=int, default=20,
                        help="change pairs to synthesize")
    impact.set_defaults(fn=cmd_impact)

    bench = sub.add_parser("bench", help="one-shot update-time measurement")
    common(bench)
    profiled(bench)
    guarded(bench)
    bench.add_argument("--engine", choices=sorted(ENGINES), default="laddder")
    bench.add_argument("--changes", type=int, default=20)
    bench.set_defaults(fn=cmd_bench)

    explain_cmd = sub.add_parser(
        "explain", help="derivations, why-not frontiers, rollback hints"
    )
    common(explain_cmd)
    explain_cmd.add_argument("--engine", choices=sorted(ENGINES),
                             default="laddder")
    explain_cmd.add_argument("--predicate", default=None,
                             help="relation to explain (default: primary)")
    explain_cmd.add_argument("--match", default=None,
                             help="substring selecting the tuple")
    explain_cmd.add_argument("--row", metavar="JSON", default=None,
                             help="exact tuple as a JSON array of scalars")
    explain_cmd.add_argument("--depth", type=int, default=12,
                             help="max derivation depth")
    explain_cmd.add_argument("--whynot", action="store_true",
                             help="explain why --row is NOT derived")
    explain_cmd.add_argument("--rollback", action="store_true",
                             help="suggest verified input-fact deletions "
                                  "removing the selected tuple")
    explain_cmd.add_argument("--json", metavar="FILE", default=None,
                             help="write the report as JSON (docs/"
                                  "explain_schema.json; use - for stdout)")
    explain_cmd.set_defaults(fn=cmd_explain)

    check_cmd = sub.add_parser(
        "check", help="static diagnostics for analyses and .dl files"
    )
    check_cmd.add_argument("targets", nargs="*",
                           help="bundled analysis names and/or .dl file paths")
    check_cmd.add_argument("--all", action="store_true",
                           help="check every bundled analysis")
    check_cmd.add_argument("--subject", choices=sorted(PRESETS),
                           default="minijavac",
                           help="subject used to instantiate analysis targets")
    check_cmd.add_argument("--json", metavar="FILE", default=None,
                           help="write the JSON report (docs/check_schema."
                                "json; use - for stdout)")
    check_cmd.add_argument("--fast", action="store_true",
                           help="skip the sampled aggregator-law checks")
    check_cmd.add_argument("--impact", action="store_true",
                           help="attach the per-EDB-predicate change-impact "
                                "report (affected predicates/rules/strata)")
    check_cmd.add_argument("--report", action="store_true",
                           help="print the per-stratum incrementalizability "
                                "report")
    check_cmd.add_argument("--registry", metavar="MOD:FN", default=None,
                           help="import hook(program) registering aggregators"
                                "/functions for parsed .dl targets")
    check_cmd.set_defaults(fn=cmd_check)

    serve_cmd = sub.add_parser(
        "serve", help="resident analysis service (JSON-lines protocol)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="TCP bind address (with --port)")
    serve_cmd.add_argument("--port", type=int, default=None,
                           help="serve a TCP socket instead of stdio "
                                "(0 binds an ephemeral port and prints it)")
    serve_cmd.add_argument("--workers", type=int, default=None,
                           help="shard sessions across N supervised worker "
                                "processes with crash recovery")
    serve_cmd.add_argument("--spool", default=None,
                           help="spool directory for session bases and logs "
                                "(cluster mode; default: a fresh temp "
                                "directory)")
    serve_cmd.set_defaults(fn=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Typed solver failures map to distinct nonzero exit codes with a
    one-line message on stderr (see ``EXIT_CODES``; docs/ROBUSTNESS.md):
    watchdog trip 3, invariant violation 4, checkpoint failure 5, rolled-
    back update 6, graceful signal-driven shutdown 7, unrecovered worker
    crash 8, retry exhaustion 9, any other Datalog/solver error — a
    malformed ``REPRO_*`` configuration value included — 2.
    """
    args = make_parser().parse_args(argv)
    if getattr(args, "limit", None) == -1:
        args.limit = None
    try:
        return args.fn(args)
    except DatalogError as exc:
        code = 2
        for err_cls, err_code in EXIT_CODES.items():
            if isinstance(exc, err_cls):
                code = err_code
                break
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
