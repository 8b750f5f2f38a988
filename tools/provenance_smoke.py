#!/usr/bin/env python
"""Scripted end-to-end client for the provenance ops over TCP.

Spawns a real ``repro serve`` subprocess on an ephemeral port and drives
the three provenance operations (docs/PROVENANCE.md) through a socket
against a provenance-enabled session, asserting the semantic contract at
every step:

* a rendered row read back from ``query`` feeds ``explain`` verbatim and
  comes back as the root of a derivation grounded in input facts;
* ``whynot`` on an absent tuple reports a reasoned frontier, and on an
  absent EDB row names the exact missing input fact;
* ``rollback`` returns verified edit sets, probing leaves the snapshot
  digest byte-identical, and applying the suggested deletions as a real
  ``update`` makes the target row disappear;
* the server exits 0 after a protocol-level ``shutdown``.

Run as ``PYTHONPATH=src python tools/provenance_smoke.py``.  Exits
non-zero with a diagnostic on the first divergence; CI runs this in the
``service`` job.  The client plumbing is ``tools/service_smoke.py``'s.
"""

from __future__ import annotations

import sys
import time

from service_smoke import Client, SmokeFailure, expect, start_server

OPEN = {
    "op": "open",
    "analysis": "constprop",
    "subject": "minijavac",
    "engine": "laddder",
    "provenance": True,
    # Manual flushing: the script controls exactly when batches apply.
    "flush_size": 100000,
    "flush_latency": 3600.0,
}


def leaf_kinds(node: dict) -> set[str]:
    if not node["premises"]:
        return {node["kind"]}
    kinds: set[str] = set()
    for premise in node["premises"]:
        kinds |= leaf_kinds(premise)
    return kinds


def run(client: Client) -> None:
    expect(
        client.call(dict(OPEN)),
        {"ok": True, "engine": "LaddderSolver", "exported": ["val"]},
        "open",
    )

    row = expect(
        client.call({"op": "query", "predicate": "val", "limit": 1}),
        {"ok": True, "version": 1},
        "query",
    )["rows"][0]

    # explain: the rendered query row feeds back verbatim.
    explained = expect(
        client.call({"op": "explain", "predicate": "val", "row": row}),
        {"ok": True, "predicate": "val", "version": 1},
        "explain",
    )
    tree = explained["derivation"]
    if tree["row"] != row:
        raise SmokeFailure(f"explain root {tree['row']} != query row {row}")
    kinds = leaf_kinds(tree)
    if not kinds <= {"fact", "negation", "depth"}:
        raise SmokeFailure(f"ungrounded derivation leaves: {kinds}")

    # whynot: reasoned frontier for an absent IDB tuple, exact missing
    # fact for an absent EDB row.
    absent = expect(
        client.call(
            {"op": "whynot", "predicate": "val",
             "row": ["ghost_node", "ghost_var", None]}
        ),
        {"ok": True, "predicate": "val"},
        "whynot",
    )["report"]
    if absent["reason"] not in ("frontier", "no-rule"):
        raise SmokeFailure(f"unexpected whynot reason: {absent['reason']}")
    edb = expect(
        client.call(
            {"op": "whynot", "predicate": "flow",
             "row": ["nowhere_a", "nowhere_b"]}
        ),
        {"ok": True},
        "whynot edb",
    )["report"]
    if edb["reason"] != "input-fact-absent":
        raise SmokeFailure(f"unexpected EDB whynot reason: {edb['reason']}")

    # rollback: verified suggestions, digest-stable probing.
    digest = expect(
        client.call({"op": "snapshot"}), {"ok": True, "version": 1}, "snapshot"
    )["digest"]
    suggestions = expect(
        client.call({"op": "rollback", "predicate": "val", "row": row}),
        {"ok": True, "predicate": "val", "version": 1},
        "rollback",
    )["suggestions"]
    if not suggestions:
        raise SmokeFailure("no rollback suggestions for a derived val row")
    if not all(s["verified"] for s in suggestions):
        raise SmokeFailure(f"unverified suggestion in {suggestions}")
    expect(
        client.call({"op": "snapshot"}),
        {"ok": True, "version": 1, "digest": digest},
        "digest stability after rollback probing",
    )

    # Applying the suggested deletions as a real update removes the row.
    deletions: dict[str, list] = {}
    for edit in suggestions[0]["edits"]:
        deletions.setdefault(edit["pred"], []).append(edit["row"])
    expect(
        client.call({"op": "update", "delete": deletions, "flush": True}),
        {"ok": True},
        "apply suggestion",
    )
    after = expect(
        client.call({"op": "query", "predicate": "val", "limit": 0}),
        {"ok": True, "version": 2},
        "query after apply",
    )
    rows_after = client.call(
        {"op": "query", "predicate": "val", "limit": after["count"]}
    )["rows"]
    if row in rows_after:
        raise SmokeFailure(f"target row {row} survived its rollback edit")

    expect(client.call({"op": "close"}), {"ok": True, "closed": True}, "close")
    expect(
        client.call({"op": "shutdown"}), {"ok": True, "closing": True},
        "shutdown",
    )


def main() -> int:
    proc, host, port = start_server()
    client = Client(host, port)
    try:
        run(client)
        deadline = time.monotonic() + 120
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        if proc.returncode != 0:
            raise SmokeFailure(
                f"server exit code {proc.returncode}: "
                f"{proc.stdout.read()[-2000:]}"
            )
        print(f"provenance smoke OK: {client.ops} ops, clean shutdown")
        return 0
    except SmokeFailure as exc:
        print(f"provenance smoke FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())
