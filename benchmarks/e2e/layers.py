"""From spans to metrics: the eight end-to-end numbers, and the per-layer
breakdown of a traced run (README.md defines every name)."""

from __future__ import annotations

from collections import defaultdict

from repro.methodology import bucket_label, bucket_of

from reduce import min_over_passes, percentile

#: Impact buckets reported (``10e1`` = 0..1 affected tuples, ``10e4`` =
#: 101..1000); an update above the last one is counted in it.
BUCKETS = (1, 2, 3, 4)

#: Wire rungs from the outside in; the first one present is the product path.
WIRE_RUNGS = ("cluster", "server", "protocol")
WIRE_OPS = ("update", "query", "snapshot", "stats")
SESSION_SPANS = tuple(f"session.{op}" for op in ("update", "flush", *WIRE_OPS[1:]))
PARTS_SPANS = ("queue.put", "queue.drain", "guard.update", "snapshot.take",
               "snapshot.rows", "snapshot.digest")


class Samples:
    """Per-name durations of several passes, reduced across the passes by
    the minimum (reduce.py)."""

    def __init__(self, passes: list[list[list]], cycles: int):
        self.cycles = cycles
        #: pass -> name -> [(cycle, seconds)] in program order.
        self._passes = []
        for spans in passes:
            by_name = defaultdict(list)
            for name, cycle, _parent, start, end in spans:
                by_name[name].append((cycle, end - start))
            self._passes.append(by_name)

    def first(self, count: int) -> "Samples":
        """The same samples reduced over the first ``count`` passes only."""
        clone = Samples([], self.cycles)
        clone._passes = self._passes[:count]
        return clone

    def names(self) -> set[str]:
        return set(self._passes[0]) if self._passes else set()

    def series(self, name: str, setup: bool = False) -> list[float]:
        """Every span called ``name`` inside the cycles (or, ``setup``,
        outside them), each reduced across the passes."""
        return min_over_passes([
            [d for cycle, d in by_name.get(name, ()) if (cycle < 0) == setup]
            for by_name in self._passes
        ])

    def per_cycle(self, *names: str) -> list[float]:
        """Summed duration of the named spans per cycle, reduced across the
        passes."""
        rows = []
        for by_name in self._passes:
            sums = [0.0] * self.cycles
            for name in names:
                for cycle, duration in by_name.get(name, ()):
                    if cycle >= 0:
                        sums[cycle] += duration
            rows.append(sums)
        return min_over_passes(rows)


def _p(samples: list[float], q: float, scale: float) -> float:
    return percentile(samples, q) * scale if samples else 0.0


def _minus(left: list[float], right: list[float]) -> list[float]:
    """Per-cycle self time; a twin that measured slower than the rung above
    it (noise) counts as zero, not negative."""
    return [max(0.0, a - b) for a, b in zip(left, right)]


def end_to_end(samples: Samples, top: str, edits: int) -> dict:
    """The timing metrics a client sees, from the product path's spans."""
    visible = samples.series("e2e.visible")
    return {
        "setup_s": (sum(samples.series(f"{top}.setup", setup=True)), "s"),
        "visible_p50_ms": (_p(visible, 0.50, 1e3), "ms"),
        "visible_p90_ms": (_p(visible, 0.90, 1e3), "ms"),
        "edits_per_s": (edits / sum(samples.series("e2e.cycle")), "1/s"),
        "query_p50_ms": (_p(samples.series(f"{top}.query"), 0.50, 1e3), "ms"),
        "snapshot_p50_ms": (
            _p(samples.series(f"{top}.snapshot"), 0.50, 1e3), "ms"),
    }


def layer_times(samples: Samples) -> dict[str, list[float]]:
    """Per-cycle self time of every layer, outermost first.  By
    construction they telescope to the cycle; what is left over after the
    independent minima is ``trace.unattributed_share``."""
    present = samples.names()
    wire = [r for r in WIRE_RUNGS if f"{r}.roundtrip" in present]
    top = wire[0]
    calls = samples.per_cycle(*(f"{top}.{op}" for op in WIRE_OPS))
    trips = {r: samples.per_cycle(f"{r}.roundtrip") for r in wire}
    session = samples.per_cycle(*SESSION_SPANS)
    parts = samples.per_cycle(*PARTS_SPANS)
    engine = samples.per_cycle("engine.update")
    layers = {
        "changes": samples.per_cycle("changes.step"),
        "client": _minus(calls, trips[top]),
    }
    below = [*(trips[r] for r in wire[1:]), session]
    for rung, inner in zip(wire, below):
        layers[f"service.{rung}"] = _minus(trips[rung], inner)
    layers.update({
        "service.session": _minus(session, parts),
        "service.queue": samples.per_cycle("queue.put", "queue.drain"),
        "robustness.guard": _minus(samples.per_cycle("guard.update"), engine),
        "engines.update": engine,
        "service.snapshot.take": samples.per_cycle("snapshot.take"),
        "service.snapshot.rows": samples.per_cycle("snapshot.rows"),
        "service.snapshot.digest": samples.per_cycle("snapshot.digest"),
    })
    return layers


def per_layer(samples: Samples, untraced: Samples, record: dict, counts: dict,
              reference_solve_s: float, calib: list[float]) -> dict:
    """Every per-layer metric of BENCHMARK.json as ``name -> (value, unit)``.

    ``record`` is pass 0 of the traced passes (its counts repeat exactly in
    every pass), ``counts`` the counting replay, ``untraced`` two passes of
    the product path alone, timed in the same run.
    """
    layers = layer_times(samples)
    cycle = samples.series("e2e.cycle")
    total = sum(cycle)
    parts = record["parts"]
    sources = record["sources"]
    edits = sum(source.edits for source in sources)
    batches = sum(slot.batches for slot in parts.slots)
    stats = record["final_stats"]
    service = [s["metrics"]["service"] for s in stats]
    enqueued = sum(s["updates_enqueued"] for s in service)
    queries = len(samples.series(f"{record['rungs'][0]}.query"))
    out: dict[str, tuple[float, str]] = {}

    def ms(name, values, q=0.50):
        out[name] = (_p(values, q, 1e3), "ms")

    def share(name, values):
        out[name] = (sum(values) / total, "ratio")

    ms("changes.step_p50_ms", samples.series("changes.step"))
    out["changes.facts_per_edit"] = (
        sum(source.fact_ops for source in sources) / edits, "count")
    share("changes.share", layers["changes"])
    share("client.share", layers["client"])

    out["service.queue.put_p50_us"] = (
        _p(samples.series("queue.put"), 0.50, 1e6), "us")
    out["service.queue.drain_p50_us"] = (
        _p(samples.series("queue.drain"), 0.50, 1e6), "us")
    out["service.queue.coalesce_ratio"] = (
        sum(s["updates_coalesced"] for s in service) / enqueued if enqueued else 0.0,
        "ratio")
    out["service.queue.keys_per_batch"] = (
        sum(slot.keys for slot in parts.slots) / batches, "count")
    share("service.queue.share", layers["service.queue"])

    ms("robustness.guard_p50_ms", [
        g for g, e in zip(layers["robustness.guard"], layers["engines.update"]) if e
    ])
    out["robustness.rollbacks"] = (
        sum(slot.guarded.metrics.rollbacks for slot in parts.slots), "count")
    share("robustness.guard_share", layers["robustness.guard"])

    updates = samples.series("engine.update")
    ms("engines.update_p50_ms", updates)
    ms("engines.update_p90_ms", updates, 0.90)
    share("engines.update_share", layers["engines.update"])
    buckets = defaultdict(list)
    for seconds, impact in zip(updates, parts.impacts):
        buckets[min(bucket_of(impact), BUCKETS[-1])].append(seconds)
    for index in BUCKETS:
        label = bucket_label(index)
        ms(f"engines.update_p50_ms.{label}", buckets[index])
        out[f"engines.updates.{label}"] = (len(buckets[index]), "count")
    out["engines.solve_s"] = (
        sum(samples.series("engine.solve", setup=True)), "s")
    out["engines.reference_solve_s"] = (reference_solve_s, "s")
    for name in ("join_probes", "support_updates", "tuples_derived", "rules_fired"):
        out[f"engines.{name}_per_edit"] = (counts[name] / edits, "count")
    for name in ("replans_triggered", "state_size", "timeline_entries"):
        out[f"engines.{name}"] = (counts[name], "count")

    out["datalog.impact.seconds_per_edit"] = (
        sum(slot.bare.metrics.impact_seconds - slot.impact_seconds_at_solve
            for slot in parts.slots) / edits, "s")
    out["datalog.impact.strata_skipped_per_edit"] = (
        counts["strata_skipped"] / edits, "count")

    ms("service.snapshot.take_p50_ms", samples.series("snapshot.take"))
    out["service.snapshot.exported_rows"] = (
        sum(sum(slot.snapshot.counts().values()) for slot in parts.slots), "count")
    share("service.snapshot.take_share", layers["service.snapshot.take"])
    ms("service.snapshot.rows_p50_ms", samples.series("snapshot.rows"))
    share("service.snapshot.rows_share", layers["service.snapshot.rows"])
    ms("service.snapshot.digest_p50_ms", samples.series("snapshot.digest"))
    share("service.snapshot.digest_share", layers["service.snapshot.digest"])

    ms("service.session.self_p50_ms", layers["service.session"])
    share("service.session.self_share", layers["service.session"])
    out["service.session.open_s"] = (
        sum(samples.series("session.setup", setup=True)), "s")
    ms("service.protocol.self_p50_ms", layers["service.protocol"])
    share("service.protocol.self_share", layers["service.protocol"])
    out["service.protocol.bytes_per_query"] = (
        record["query_bytes"] / queries, "B")

    ms("service.server.rtt_p50_ms", samples.series("server.ping"))
    share("service.server.self_share", layers.get("service.server", []))
    ms("service.cluster.hop_p50_ms", _minus(
        samples.per_cycle("cluster.stats"), samples.per_cycle("server.stats")))
    share("service.cluster.self_share", layers.get("service.cluster", []))
    counters = record.get("cluster_stats", {}).get("cluster", {}).get("counters", {})
    for name in ("retries", "worker_restarts", "overloads"):
        out[f"service.cluster.{name}"] = (counters.get(name, 0), "count")
    ms("engines.checkpoint.save_p50_ms", samples.series("checkpoint.save"))
    out["engines.checkpoint.bytes"] = (parts.checkpoint_bytes, "B")
    out["service.session.checkpoints_written"] = (
        sum(s["checkpoint"]["written"] for s in stats), "count")

    # Tracing overhead: the product path with its twins running beside it
    # against the product path alone, both as min over the first two passes.
    alone = sum(untraced.series("e2e.visible"))
    out["trace.overhead_share"] = (
        sum(samples.first(2).series("e2e.visible")) / alone - 1.0, "ratio")
    out["trace.unattributed_share"] = (
        1.0 - sum(sum(values) for values in layers.values()) / total, "ratio")
    out["host.calib_ms"] = (min(calib) * 1e3, "ms")
    out["host.calib_spread"] = ((max(calib) - min(calib)) / min(calib), "ratio")
    return out
