"""Seeded, deterministic edit streams (the continuous-edit soak workload).

The paper's evaluation replays single-shot diffs; an IDE session is
hundreds of *successive* edits against one live engine, which is where
per-tuple state accretion and queue-coalescing bugs hide.
:class:`EditStream` generates that workload: a reproducible sequence of
realistic source edits applied through a
:class:`~repro.changes.source_edits.SourceEditor`, each yielding the
fact-level :class:`~repro.changes.base.Change` any solver consumes as one
epoch.

Stream grammar
--------------

Each step draws one edit kind from a weighted distribution (weights are
constructor arguments; the defaults favour the common case):

* ``literal`` — method-body literal churn: overtype a ``ConstAssign``
  value with a fresh small integer, or (35% of draws) type the original
  back in.  Rewriting the current value is allowed — a no-op edit is
  exactly what queue coalescing must absorb.
* ``delete`` — remove a simple statement (never an ``If``/``While``
  header, so no block ever detaches).  Deleted statements join a bounded
  *outstanding pool* (``max_outstanding``).
* ``restore`` — re-insert a random outstanding statement at its old
  position, reviving its label: the delete/re-insert cycle an editor's
  undo produces.  Forced whenever the pool is full.
* ``rename`` — allocation-site rename cascade: retype the class of a
  ``New`` statement to another class the program already allocates
  (half the time, back to the original).

Infeasible kinds (no literals, pool empty, single allocated class) fall
out of the draw, so every program with at least one editable statement
yields an infinite stream.  Determinism: the same ``(program, seed,
weights)`` produce bit-identical edit sequences — the soak harness and CI
replay them against from-scratch re-solves by seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyses import ANALYSES
from ..javalite.ast import ConstAssign, If, JProgram, New, While
from .base import Change, rng_for
from .source_edits import (
    IncrementalSourceEditor,
    SourceEditor,
    pointsto_facts,
    value_facts,
)


def editor_for(
    program: JProgram, analysis: str, incremental: bool = True
) -> SourceEditor:
    """The source editor whose fact extractor matches ``analysis``: the
    schema its builder extracts (:func:`repro.analyses.base.extracts`)."""
    kind = ANALYSES[analysis].schema
    if incremental:
        return IncrementalSourceEditor(program, kind=kind)
    extractor = pointsto_facts if kind == "pointsto" else value_facts
    return SourceEditor(program, extractor=extractor)


@dataclass(frozen=True)
class StreamStep:
    """One generated edit: its position, kind, and fact-level change."""

    index: int
    kind: str
    change: Change


class EditStream:
    """Weighted, seeded generator of successive source edits."""

    DEFAULT_WEIGHTS = {"literal": 9, "delete": 4, "restore": 4, "rename": 3}
    #: Fraction of literal draws that type the original value back in.
    REVERT_BIAS = 0.35
    #: Fraction of rename draws (on an already-renamed site) that rename back.
    RENAME_BACK_BIAS = 0.5

    def __init__(
        self,
        editor: SourceEditor,
        seed: int = 0,
        max_outstanding: int = 8,
        weights: dict[str, int] | None = None,
    ):
        self.editor = editor
        self.seed = seed
        self.rng = rng_for(seed)
        self.max_outstanding = max_outstanding
        self.weights = dict(self.DEFAULT_WEIGHTS if weights is None else weights)
        #: Per-kind step counts (observability; mirrors the emitted stream).
        #: Keyed over every kind: a full pool forces a ``restore`` even when
        #: its weight is absent or zero.
        self.counts = dict.fromkeys({*self.DEFAULT_WEIGHTS, *self.weights}, 0)

        self._literals: dict[str, object] = {}  # label -> original value
        self._allocs: dict[str, str] = {}  # label -> original class
        self._deletable: list[str] = []
        for method in editor.program.methods():
            for stmt in method.statements():
                if isinstance(stmt, ConstAssign):
                    self._literals[stmt.label] = stmt.value
                elif isinstance(stmt, New):
                    self._allocs[stmt.label] = stmt.cls
                if not isinstance(stmt, (If, While)):
                    self._deletable.append(stmt.label)
        self._classes = sorted(set(self._allocs.values()))
        self._dead: set[str] = set()
        self._outstanding: list[str] = []
        self._renamed: dict[str, str] = {}  # label -> current (renamed) class
        self._index = 0

    # -- generation --------------------------------------------------------

    def step(self) -> StreamStep:
        """Generate and apply the next edit; returns its fact diff."""
        kind = self._pick_kind()
        change = getattr(self, f"_edit_{kind}")()
        self.counts[kind] += 1
        result = StreamStep(self._index, kind, change)
        self._index += 1
        return result

    def take(self, steps: int) -> list[StreamStep]:
        return [self.step() for _ in range(steps)]

    @property
    def outstanding(self) -> tuple[str, ...]:
        """Labels currently deleted and awaiting restoration."""
        return tuple(self._outstanding)

    # -- edit kinds --------------------------------------------------------

    def _pick_kind(self) -> str:
        if len(self._outstanding) >= self.max_outstanding:
            return "restore"
        feasible = {
            "literal": bool(self._live(self._literals)),
            "delete": bool(self._live_deletable()),
            "restore": bool(self._outstanding),
            "rename": len(self._classes) > 1 and bool(self._live(self._allocs)),
        }
        kinds = [k for k, w in self.weights.items() if w > 0 and feasible[k]]
        if not kinds:
            raise RuntimeError("program has no editable statements left")
        return self.rng.choices(kinds, [self.weights[k] for k in kinds])[0]

    def _edit_literal(self) -> Change:
        label = self.rng.choice(self._live(self._literals))
        if self.rng.random() < self.REVERT_BIAS:
            value = self._literals[label]
        else:
            value = self.rng.randrange(-64, 65)
        return self.editor.replace_literal(label, value)

    def _edit_delete(self) -> Change:
        label = self.rng.choice(self._live_deletable())
        change = self.editor.delete_statement(label)
        self._dead.add(label)
        self._outstanding.append(label)
        return change

    def _edit_restore(self) -> Change:
        label = self._outstanding.pop(
            self.rng.randrange(len(self._outstanding))
        )
        change = self.editor.restore_statement(label)
        self._dead.discard(label)
        return change

    def _edit_rename(self) -> Change:
        label = self.rng.choice(self._live(self._allocs))
        original = self._allocs[label]
        current = self._renamed.get(label, original)
        if current != original and self.rng.random() < self.RENAME_BACK_BIAS:
            cls = original
        else:
            cls = self.rng.choice([c for c in self._classes if c != current])
        change = self.editor.rename_allocation(label, cls)
        if cls == original:
            self._renamed.pop(label, None)
        else:
            self._renamed[label] = cls
        return change

    # -- eligibility -------------------------------------------------------

    def _live(self, labels) -> list[str]:
        return [label for label in labels if label not in self._dead]

    def _live_deletable(self) -> list[str]:
        return [label for label in self._deletable if label not in self._dead]
