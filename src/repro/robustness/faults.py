"""Deterministic fault injection at named engine sites.

Recovery code that never runs is decoration.  Every guarded path in this
package (rollback, fallback re-solve, checkpoint validation, kernel-cache
exception safety) is exercised by tests that *make* the failure happen, at
a precise, named point in the engine's hot path, on a deterministic hit
count — no randomness, no monkeypatching engine internals.

Sites are compiled into the engines as near-zero-cost probes::

    if _faults.ACTIVE is not None:
        _faults.fire("kernel.emit")

and tests arm them with the :func:`inject` context manager::

    with faults.inject("timeline.append", at=3):
        with pytest.raises(RollbackError):
            guarded.update(insertions=...)

``at=3`` means the third time the site is reached the injected exception is
raised; earlier and later hits pass through.  The default exception,
:class:`FaultInjected`, deliberately does **not** subclass ``SolverError``
— the guard must recover from arbitrary failures, not just the ones the
engine anticipated.
"""

from __future__ import annotations

from contextlib import contextmanager

#: Registry of every named injection site compiled into the engines.
#: docs/ROBUSTNESS.md documents where each one lives; tests iterate this
#: set so a new site cannot be added without chaos coverage.
FAULT_SITES = frozenset(
    {
        "kernel.emit",  # rule-kernel batch evaluation, every engine
        "aggregate.combine",  # aggregation feed/advance, every engine
        "timeline.append",  # Laddder compensation delta application
        "checkpoint.write",  # write_checkpoint, before the temp file write
        "log.append",  # CheckpointLog.append, with half the record written
        "compile.build",  # KernelCache plan+compile of a rule body
        "cluster.dispatch",  # front-end request routing to a worker
        "worker.heartbeat",  # worker-side ping handling (liveness probe)
    }
)


class FaultInjected(RuntimeError):
    """The default exception raised by an armed fault site.

    Intentionally outside the ``DatalogError`` hierarchy: recovery paths
    must handle failures the engine never anticipated."""


class FaultPlan:
    """An armed set of fault sites with deterministic hit-count triggers.

    ``hits`` counts every probe of each site (fired or not) so tests can
    assert a site was actually reached; ``fired`` counts raises."""

    __slots__ = ("site", "at", "times", "exc", "hits", "fired")

    def __init__(self, site: str, at: int = 1, times: int = 1, exc=FaultInjected):
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; registered sites: "
                f"{sorted(FAULT_SITES)}"
            )
        if at < 1:
            raise ValueError("fault trigger 'at' is 1-based and must be >= 1")
        self.site = site
        self.at = at
        self.times = times
        self.exc = exc
        self.hits = 0
        self.fired = 0

    def fire(self, site: str) -> None:
        if site != self.site:
            return
        self.hits += 1
        if self.hits >= self.at and self.fired < self.times:
            self.fired += 1
            raise self.exc(f"injected fault at {site} (hit {self.hits})")


#: The currently armed plan, or None.  Engines guard their probes with
#: ``if _faults.ACTIVE is not None`` so the disarmed cost is one global
#: load per probe site.
ACTIVE: FaultPlan | None = None


def fire(site: str) -> None:
    """Probe ``site``: raise if an armed plan says this hit should fail."""
    if ACTIVE is not None:
        ACTIVE.fire(site)


#: Environment variable arming a fault plan in a freshly started process
#: (cluster worker subprocesses cannot be reached by in-process ``inject``).
FAULT_ENV = "REPRO_FAULT"


def arm_from_env(environ=None) -> FaultPlan | None:
    """Arm a plan from ``REPRO_FAULT=site[:at[:times]]``, if set.

    The cluster recovery tests and the CI fault-injected smoke use this to
    plant deterministic failures inside worker *subprocesses*; an in-process
    plan must not already be armed.  Returns the armed plan (or None when
    the variable is unset/empty)."""
    global ACTIVE
    if environ is None:
        import os

        environ = os.environ
    spec = environ.get(FAULT_ENV, "").strip()
    if not spec:
        return None
    parts = spec.split(":")
    site = parts[0]
    at = int(parts[1]) if len(parts) > 1 else 1
    times = int(parts[2]) if len(parts) > 2 else 1
    if ACTIVE is not None:
        raise RuntimeError("a fault plan is already active; plans do not nest")
    ACTIVE = FaultPlan(site, at=at, times=times)
    return ACTIVE


@contextmanager
def inject(site: str, at: int = 1, times: int = 1, exc=FaultInjected):
    """Arm ``site`` to raise on its ``at``-th hit, for ``times`` raises.

    Yields the :class:`FaultPlan` so callers can assert ``plan.fired`` (the
    fault actually triggered) or ``plan.hits`` (the site was reached).
    Plans do not nest; arming while armed is a test bug and raises."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a fault plan is already active; plans do not nest")
    plan = FaultPlan(site, at=at, times=times, exc=exc)
    ACTIVE = plan
    try:
        yield plan
    finally:
        ACTIVE = None
