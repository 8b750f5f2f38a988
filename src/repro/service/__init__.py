"""Long-lived analysis sessions: batched updates, snapshot-isolated reads.

The paper's economics only pay off when the expensive initial solve is
amortized over many cheap incremental updates.  One-shot CLI runs re-pay
process startup, fact extraction, static checks, and kernel compilation on
every invocation; this package keeps a solved engine *resident* instead —
the deployment shape of IncA's editor integration and of reactive Datalog
engines such as DDlog, which are driven as long-lived processes over a
text command protocol.

Layers (each its own module, composable without the ones above it):

* :mod:`~repro.service.queue` — pending fact edits with per-key
  last-write-wins coalescing and size/latency flush policies.
* :mod:`~repro.service.snapshot` — immutable versioned exported views;
  queries read the last *published* snapshot, never a half-applied batch.
* :mod:`~repro.service.session` — one live solver (any engine, wrapped in
  :class:`~repro.robustness.GuardedSolver`) plus a worker thread applying
  batches transactionally and publishing snapshots.
* :mod:`~repro.service.protocol` — the JSON-lines request/response
  protocol (``open``/``update``/``query``/``snapshot``/``save``/
  ``restore``/``stats``/``close``) over a session manager.
* :mod:`~repro.service.server` — stdio and TCP front ends plus graceful
  signal-driven shutdown, surfaced as the ``repro serve`` subcommand.
* :mod:`~repro.service.router` / :mod:`~repro.service.cluster` /
  :mod:`~repro.service.worker` — the fault-tolerant multi-process tier:
  consistent-hash sharding of sessions onto supervised worker processes,
  heartbeat liveness, crash recovery from each session's base file and
  batch log plus the journal of ops not yet durable, request
  retry/timeout/backoff, and typed overload
  rejection (``repro serve --workers N``).

See docs/SERVICE.md for the protocol reference and semantics.
"""

from ..datalog.errors import ServiceError, ShutdownRequested
from .cluster import ClusterConfig, ClusterService, WorkerClient
from .protocol import PROTOCOL_VERSION, ServiceProtocol, SessionManager
from .queue import CoalescingQueue, UpdateBatch
from .router import HashRing, Router, SessionRecord
from .server import ServiceServer, install_signal_handlers, serve_stdio
from .session import Session, SessionConfig
from .snapshot import Snapshot, take_snapshot

__all__ = [
    "PROTOCOL_VERSION",
    "ClusterConfig",
    "ClusterService",
    "CoalescingQueue",
    "HashRing",
    "Router",
    "ServiceError",
    "ServiceProtocol",
    "ServiceServer",
    "Session",
    "SessionConfig",
    "SessionManager",
    "SessionRecord",
    "ShutdownRequested",
    "Snapshot",
    "UpdateBatch",
    "WorkerClient",
    "install_signal_handlers",
    "serve_stdio",
    "take_snapshot",
]
