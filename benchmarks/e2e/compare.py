"""Compare two sets of benchmark runs, or the current tree against itself.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --aa 5 [--vary-seed] [--traced] --out OUT.json
    python3 benchmarks/e2e/compare.py --layers RUNS.json

A run set is ``{"runs": [{"workload", "seed", "trace", "set", "result"}]}``
where ``result`` is the last line ``run.py`` printed.  For every workload x
end-to-end metric the comparison prints both medians with their quartiles,
the gap of B relative to A (positive = B is worse), the bound from
BENCHMARK.json, and a verdict:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``unresolved``  either side's quartile spread is wider than the bound, so
                  a gap of that size would not be distinguishable from noise;
* ``ok``          otherwise.

``--aa N`` makes the two sets itself: N runs per workload each, interleaved
A, B, A, B, ... so that drift of the machine hits both alike.  Exit code 1
if anything regressed or is unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from reduce import quartiles, spread

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


def load_benchmark() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def values_of(runs: list[dict], workload: str, metric: str,
              group: str | None = None) -> list[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and not run.get("trace")
        and (group is None or run.get("set") == group)
        and metric in run["result"]["metrics"]
    ]


def compare(a_runs: list[dict], b_runs: list[dict], benchmark: dict,
            a_set: str | None = None, b_set: str | None = None) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            a = values_of(a_runs, workload, metric["name"], a_set)
            b = values_of(b_runs, workload, metric["name"], b_set)
            if len(a) < 2 or len(b) < 2:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            gap = (bm - am) / am if metric["better"] == "lower" else (am - bm) / am
            if gap > metric["bound"]:
                verdict = "regressed"
            elif max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "n": [len(a), len(b)],
                "a": [a1, am, a3], "b": [b1, bm, b3],
                "spread": [spread(a), spread(b)],
                "gap": gap, "bound": metric["bound"], "verdict": verdict,
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    header = (f"{'workload':26s} {'metric':16s} {'A median [q1..q3]':>30s} "
              f"{'B median [q1..q3]':>30s} {'spread A/B':>13s} {'gap':>7s} "
              f"{'bound':>6s}  verdict")
    print(header)
    for row in rows:
        def side(q):
            return f"{q[1]:.4g} [{q[0]:.4g}..{q[2]:.4g}]"
        print(
            f"{row['workload']:26s} {row['metric']:16s} {side(row['a']):>30s} "
            f"{side(row['b']):>30s} "
            f"{row['spread'][0]:6.1%}/{row['spread'][1]:<6.1%} {row['gap']:+7.1%} "
            f"{row['bound']:6.0%}  {row['verdict']}"
        )


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One ``run.py`` process; its last output line, parsed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def self_compare(count: int, seed: int, vary_seed: bool, traced: bool,
                 benchmark: dict) -> dict:
    runs = []
    seconds = benchmark["run_seconds"]
    for index in range(count):
        for group in ("A", "B"):
            for workload in (w["name"] for w in benchmark["workloads"]):
                run_seed = seed + index if vary_seed else seed
                result = run_once(workload, run_seed, seconds, trace=False)
                runs.append({"workload": workload, "seed": run_seed, "trace": 0,
                             "set": group, "result": result})
                print(f"{group}{index} {workload} seed {run_seed}: "
                      f"correct={result['correct']}", file=sys.stderr, flush=True)
    if traced:
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs.append({"workload": workload, "seed": seed, "trace": 1,
                         "result": run_once(workload, seed, seconds, trace=True)})
    return {
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "runs": runs,
    }


#: The README's share table: layer, outermost first -> its share metric.
SHARES = (
    ("changes (edit -> fact diff)", "changes.share"),
    ("client codec (harness)", "client.share"),
    ("service.cluster (router, worker pipe)", "service.cluster.self_share"),
    ("service.server (TCP)", "service.server.self_share"),
    ("service.protocol", "service.protocol.self_share"),
    ("service.session", "service.session.self_share"),
    ("service.queue", "service.queue.share"),
    ("robustness.guard", "robustness.guard_share"),
    ("engines.update", "engines.update_share"),
    ("service.snapshot.take", "service.snapshot.take_share"),
    ("service.snapshot.rows", "service.snapshot.rows_share"),
    ("service.snapshot.digest", "service.snapshot.digest_share"),
    ("unattributed", "trace.unattributed_share"),
)


def print_layers(runs: list[dict], benchmark: dict) -> None:
    """Markdown table of the layers' shares of the cycle, per workload."""
    names = [w["name"] for w in benchmark["workloads"]]
    traced = {r["workload"]: r["result"]["metrics"] for r in runs if r.get("trace")}
    print("| layer | " + " | ".join(f"`{n}`" for n in names) + " |")
    print("|---|" + "---:|" * len(names))
    for label, metric in SHARES:
        cells = [f"{traced[n][metric]['value']:.1%}" if n in traced else "-"
                 for n in names]
        print(f"| {label} | " + " | ".join(cells) + " |")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run two interleaved sets of N runs per workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i of either set uses seed + i (as the "
                             "driver does) instead of one seed throughout")
    parser.add_argument("--traced", action="store_true",
                        help="with --aa: add one traced run per workload")
    parser.add_argument("--out", help="with --aa: write the runs here")
    parser.add_argument("--layers", metavar="RUNS.json",
                        help="print the layer-share table of the traced runs")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()

    if args.layers:
        with open(args.layers) as handle:
            print_layers(json.load(handle)["runs"], benchmark)
        return 0
    if args.aa:
        data = self_compare(args.aa, args.seed, args.vary_seed, args.traced,
                            benchmark)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(data, handle, indent=1)
        rows = compare(data["runs"], data["runs"], benchmark, "A", "B")
        incorrect = [r for r in data["runs"] if not r["result"]["correct"]]
    elif len(args.files) == 2:
        sets = []
        for name in args.files:
            with open(name) as handle:
                sets.append(json.load(handle)["runs"])
        rows = compare(sets[0], sets[1], benchmark)
        incorrect = [r for s in sets for r in s if not r["result"]["correct"]]
    else:
        parser.error("give A.json B.json, --aa N, or --layers RUNS.json")
    print_rows(rows)
    for run in incorrect:
        print(f"incorrect run: {run['workload']} seed {run['seed']}")
    bad = [r for r in rows if r["verdict"] != "ok"]
    return 1 if bad or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
