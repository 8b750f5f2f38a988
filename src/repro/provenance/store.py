"""Minimal per-tuple provenance annotations, captured at emit time.

Following "Provenance for Large-scale Datalog" (Zhao et al.), the solver
does **not** materialize proof trees during evaluation.  It records one
tiny annotation per derived tuple — ``(rule_id, height)`` — at the moment
the tuple is first inserted, and proof trees are reconstructed on demand
by :func:`repro.engines.explain.explain`, which uses the annotation as a
search hint: try the recorded rule first, and prefer premise groundings
whose recorded heights are strictly smaller than the node's own.

Design points that keep capture nearly free:

* ``height`` is a per-solver monotone insertion clock, not a true proof
  height.  A tuple can only be derived from tuples inserted before it,
  so within one from-scratch evaluation the clock respects derivation
  order; incremental epochs may re-insert support out of order, which is
  fine because annotations are *hints* — reconstruction re-verifies every
  node against exported views and falls back to full search when a hint
  does not pan out.
* Rules are identified by their index into ``program.rules`` (stable for
  a given program text across processes), so annotations survive
  checkpoint round-trips.
* Rows are stored as the value tuples every engine already has in hand
  at the insertion site.
* Engines whose physical insertion point has lost track of the deriving
  rule (worklist pops in DRed, queue drains in Laddder) record a
  transient :meth:`hint` at *push* time; :meth:`annotate` consumes it.
  Hints are scratch state — never journaled, never checkpointed.
* When an :class:`~repro.robustness.guard.UpdateGuard` is installed it
  attaches its shared undo list as :attr:`journal`; every annotation
  mutation then appends its inverse, so a rolled-back epoch restores the
  annotation map bit-equal along with the tuples themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..datalog.ast import Rule
    from ..datalog.program import Program
    from ..metrics import SolverMetrics

#: annotation payload: (rule index or None, insertion-clock height)
Annotation = tuple[int | None, int]


class ProvenanceStore:
    """Per-solver map ``(pred, row) -> (rule_id, height)``.

    The store is deliberately dumb: engines drive it with four calls
    (:meth:`hint`, :meth:`annotate`, :meth:`forget`, :meth:`clear_preds`)
    and the explainer reads it back with :meth:`get` / :meth:`rule_for`.
    """

    __slots__ = ("rules", "rule_index", "annotations", "clock", "hints",
                 "journal", "metrics")

    def __init__(self, program: "Program", metrics: "SolverMetrics | None" = None):
        self.rules: list["Rule"] = list(program.rules)
        #: identity map from live Rule objects to their stable index.
        self.rule_index: dict[int, int] = {
            id(rule): idx for idx, rule in enumerate(self.rules)
        }
        self.annotations: dict[tuple[str, tuple], Annotation] = {}
        #: monotone insertion clock; ticks once per annotate().
        self.clock = 0
        #: transient push-time rule hints, consumed by annotate().
        self.hints: dict[tuple[str, tuple], "Rule"] = {}
        #: shared undo list while an UpdateGuard is installed, else None.
        self.journal: list | None = None
        self.metrics = metrics

    # -- identity ----------------------------------------------------------

    def rule_id(self, rule: "Rule") -> int | None:
        return self.rule_index.get(id(rule))

    def rule_for(self, rule_id: int | None) -> "Rule | None":
        if rule_id is None or not 0 <= rule_id < len(self.rules):
            return None
        return self.rules[rule_id]

    # -- capture -----------------------------------------------------------

    def hint(self, pred: str, row: tuple, rule: "Rule") -> None:
        """Remember which rule is about to derive ``row`` (push time)."""
        self.hints[(pred, row)] = rule

    def drop_hint(self, pred: str, row: tuple) -> None:
        """The pending derivation deduplicated away; discard its hint."""
        self.hints.pop((pred, row), None)

    def annotate(self, pred: str, row: tuple, rule: "Rule | None" = None) -> None:
        """Record the annotation for a tuple that was just inserted.

        ``rule=None`` consumes a pending :meth:`hint` if one exists; a
        re-derived tuple with no hint is annotated ``(None, height)`` and
        the explainer simply searches all of the predicate's rules.
        """
        key = (pred, row)
        if rule is None:
            rule = self.hints.pop(key, None)
        else:
            self.hints.pop(key, None)
        self.clock += 1
        prev = self.annotations.get(key)
        self.annotations[key] = (
            None if rule is None else self.rule_index.get(id(rule)),
            self.clock,
        )
        if self.metrics is not None:
            self.metrics.provenance_annotations += 1
        if self.journal is not None:
            # Reversed replay runs the clock entry after the map entry,
            # restoring both the mapping and the tick bit-equal.
            self.journal.append((self._set_clock, self.clock - 1))
            if prev is None:
                self.journal.append((self._unset, key))
            else:
                self.journal.append((self._set, key, prev))

    def forget(self, pred: str, row: tuple) -> None:
        """A tuple left the store (deletion sweep / existence collapse)."""
        key = (pred, row)
        self.hints.pop(key, None)
        prev = self.annotations.pop(key, None)
        if prev is not None and self.journal is not None:
            self.journal.append((self._set, key, prev))

    # -- queries -----------------------------------------------------------

    def get(self, pred: str, row: tuple) -> Annotation | None:
        return self.annotations.get((pred, row))

    def __len__(self) -> int:
        return len(self.annotations)

    # -- lifecycle ---------------------------------------------------------

    def clear_preds(self, preds: Iterable[str]) -> None:
        """Drop annotations for predicates about to be re-solved."""
        wanted = set(preds)
        keys = [key for key in self.annotations if key[0] in wanted]
        journal = self.journal
        for key in keys:
            prev = self.annotations.pop(key)
            if journal is not None:
                journal.append((self._set, key, prev))

    def clear_all(self) -> None:
        """A from-scratch solve starts: annotations restart with it."""
        if self.journal is not None and (self.annotations or self.clock):
            self.journal.append((self._adopt, dict(self.annotations), self.clock))
        self.annotations.clear()
        self.hints.clear()
        self.clock = 0

    # -- journal inverses --------------------------------------------------

    def _set(self, key: tuple, value: Annotation) -> None:
        self.annotations[key] = value

    def _unset(self, key: tuple) -> None:
        self.annotations.pop(key, None)

    def _set_clock(self, clock: int) -> None:
        self.clock = clock

    def _adopt(self, annotations: dict, clock: int) -> None:
        self.annotations = dict(annotations)
        self.clock = clock

    # -- checkpoint payload ------------------------------------------------

    def dump(self) -> dict:
        """Pickle-friendly payload for checkpoints (rows are plain tuples
        of scalars)."""
        return {"annotations": dict(self.annotations), "clock": self.clock}

    def restore(self, payload: dict) -> None:
        self.annotations = dict(payload.get("annotations", {}))
        self.clock = int(payload.get("clock", len(self.annotations)))
        self.hints.clear()
