"""The four workloads (README.md and BENCHMARK.json say why each exists)."""

from __future__ import annotations

from dataclasses import dataclass, field

#: The benchmark decides when batches apply: with the product's 50 ms
#: latency flush a burst would split at a point that depends on scheduling,
#: and the replayed passes would stop doing identical work.
MANUAL_FLUSH = {"flush_size": 100_000, "flush_latency": 3600.0}


@dataclass(frozen=True)
class Workload:
    name: str
    analysis: str
    subject: str
    engine: str
    cycles: int
    #: "inproc" drives ``ServiceProtocol.handle_line`` (the stdio shape
    #: without the pipe); "tcp" spawns ``repro serve --workers 2``.
    transport: str = "inproc"
    #: Sessions served alternately, each with its own edit stream.
    sessions: int = 1
    edits_per_cycle: int = 1
    queries_per_cycle: int = 1
    #: One ``snapshot`` (digest + counts) every this many cycles.
    snapshot_every: int = 10
    #: One per-session ``stats`` at the end of every cycle.
    stats_per_cycle: bool = False
    #: "literals" or "structural": which sweep feeds the cycles
    #: (harness.EditSource).
    stream: str = "literals"
    #: Extra ``open`` fields; empty means product defaults.
    open_fields: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ide-constprop-laddder",
            analysis="constprop", subject="antlr", engine="laddder",
            cycles=300, open_fields=MANUAL_FLUSH,
        ),
        Workload(
            name="burst-constprop-laddder",
            analysis="constprop", subject="antlr", engine="laddder",
            cycles=120, edits_per_cycle=8, stream="structural",
            open_fields=MANUAL_FLUSH,
        ),
        Workload(
            name="ide-constprop-dredl",
            analysis="constprop", subject="minijavac", engine="dredl",
            cycles=250, open_fields=MANUAL_FLUSH,
        ),
        Workload(
            name="tcp-cluster-mixed",
            analysis="constprop", subject="minijavac", engine="laddder",
            cycles=200, transport="tcp", sessions=2, queries_per_cycle=3,
            snapshot_every=1, stats_per_cycle=True,
        ),
    )
}
