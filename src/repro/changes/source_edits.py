"""Source-level editing scenarios (the paper's stated future work).

Section 7 acknowledges a threat to validity: the benchmark changes are
low-level *fact* changes, and "future work should consider more realistic
editing scenarios with source code-level changes".  This module implements
that scenario end to end for javalite programs:

* :class:`SourceEditor` applies structured edits to a program — replace a
  literal, delete/restore a statement, add an allocation — while keeping
  statement labels stable (labels are assigned once; deleting a statement
  retires its label instead of shifting its successors', exactly how an
  incremental front end would behave).
* After each edit it re-runs the fact extractor and diffs the old and new
  fact sets into a :class:`repro.changes.base.Change`, which any solver
  consumes as one epoch.

One *source* edit typically produces a handful of correlated fact changes
(an ICFG edge rewires, a transfer fact disappears, a call edge moves) — a
more realistic epoch shape than single-tuple changes.
"""

from __future__ import annotations

from typing import Callable

from ..javalite.ast import ConstAssign, If, JProgram, New, Stmt, While
from ..javalite.facts import extract_pointsto_facts, extract_value_facts
from ..javalite.incremental import IncrementalExtractor
from .base import Change, Facts

Extractor = Callable[[JProgram], Facts]


def pointsto_facts(program: JProgram) -> Facts:
    facts, _ = extract_pointsto_facts(program)
    return facts


def value_facts(program: JProgram) -> Facts:
    facts, _ = extract_value_facts(program)
    return facts


def diff_facts(before: Facts, after: Facts, label: str) -> Change:
    """The epoch that turns the ``before`` fact state into ``after``."""
    insertions: dict[str, frozenset] = {}
    deletions: dict[str, frozenset] = {}
    for pred in set(before) | set(after):
        old = before.get(pred, set())
        new = after.get(pred, set())
        added = frozenset(new - old)
        removed = frozenset(old - new)
        if added:
            insertions[pred] = added
        if removed:
            deletions[pred] = removed
    return Change(label=label, insertions=insertions, deletions=deletions)


class SourceEditor:
    """Apply labelled source edits and produce per-edit fact diffs."""

    def __init__(self, program: JProgram, extractor: Extractor = value_facts):
        self.program = program
        self.extractor = extractor
        self._facts = extractor(program)
        self._label_counter = self._max_label() + 1
        #: label -> (owning block, position, statement) for deleted
        #: statements, so :meth:`restore_statement` can undo the delete.
        self._deleted: dict[str, tuple[list[Stmt], int, Stmt]] = {}

    # -- edit operations ---------------------------------------------------

    def replace_literal(self, label: str, value: object) -> Change:
        """``x = <old>`` becomes ``x = value`` at the labelled statement."""
        stmt = self._find(label)
        if not isinstance(stmt, ConstAssign):
            raise ValueError(f"{label} is not a literal assignment")
        old = stmt.value
        stmt.value = value
        return self._emit(
            f"replace-literal {label}: {old!r} -> {value!r}",
            method=label.rsplit("/", 1)[0],
        )

    def delete_statement(self, label: str) -> Change:
        """Remove the labelled statement (its label is retired, not reused,
        unless :meth:`restore_statement` later revives it)."""
        for method in self.program.methods():
            block = self._owning_block(method.body, label)
            if block is not None:
                index = next(
                    i for i, s in enumerate(block) if s.label == label
                )
                self._deleted[label] = (block, index, block[index])
                del block[index]
                return self._emit(
                    f"delete-stmt {label}", method=method.qualified
                )
        raise KeyError(f"no statement labelled {label}")

    def restore_statement(self, label: str) -> Change:
        """Undo a prior :meth:`delete_statement`: re-insert the statement at
        its old position (clamped to the block's current length), reviving
        its original label — the delete/re-insert cycle an editor's undo
        produces."""
        try:
            block, index, stmt = self._deleted.pop(label)
        except KeyError:
            raise KeyError(f"{label} was not deleted by this editor") from None
        block.insert(min(index, len(block)), stmt)
        return self._emit(
            f"restore-stmt {label}", method=label.rsplit("/", 1)[0]
        )

    def rename_allocation(self, label: str, cls: str) -> Change:
        """``var = new <Old>()`` becomes ``var = new cls()`` at the labelled
        allocation site."""
        stmt = self._find(label)
        if not isinstance(stmt, New):
            raise ValueError(f"{label} is not an allocation")
        old = stmt.cls
        stmt.cls = cls
        return self._emit(
            f"rename-alloc {label}: {old} -> {cls}",
            method=label.rsplit("/", 1)[0],
        )

    def insert_allocation(self, method: str, var: str, cls: str) -> Change:
        """Append ``var = new cls()`` to a method body with a fresh label."""
        target = self.program.method(method)
        stmt = New(f"{method}/{var}", cls)
        stmt.label = f"{method}/{self._label_counter}"
        self._label_counter += 1
        target.body.append(stmt)
        return self._emit(f"insert-alloc {stmt.label} {cls}", method=method)

    def checkpoint(self) -> Facts:
        """Snapshot the current fact state (for external verification)."""
        return {pred: set(rows) for pred, rows in self._facts.items()}

    # -- plumbing ------------------------------------------------------------

    def _emit(self, label: str, method: str) -> Change:
        """Re-extract after an edit inside ``method``; returns the diff."""
        before = self._facts
        after = self.extractor(self.program)
        change = diff_facts(before, after, label)
        self._facts = after
        return change

    def _find(self, label: str) -> Stmt:
        for method in self.program.methods():
            for stmt in method.statements():
                if stmt.label == label:
                    return stmt
        raise KeyError(f"no statement labelled {label}")

    def _owning_block(self, block: list[Stmt], label: str) -> list[Stmt] | None:
        for stmt in block:
            if stmt.label == label:
                return block
            if isinstance(stmt, If):
                found = self._owning_block(stmt.then_block, label)
                if found is None:
                    found = self._owning_block(stmt.else_block, label)
                if found is not None:
                    return found
            elif isinstance(stmt, While):
                found = self._owning_block(stmt.body, label)
                if found is not None:
                    return found
        return None

    def _max_label(self) -> int:
        highest = -1
        for method in self.program.methods():
            for stmt in method.statements():
                try:
                    highest = max(highest, int(stmt.label.rsplit("/", 1)[1]))
                except (IndexError, ValueError):
                    continue
        return highest


class IncrementalSourceEditor(SourceEditor):
    """A :class:`SourceEditor` whose front end is incremental too.

    Instead of re-extracting the whole program after every edit, it
    re-extracts only the edited method's fact slice
    (:class:`repro.javalite.incremental.IncrementalExtractor`), so the
    end-to-end edit loop cost is proportional to the method — closing the
    gap the source-edit benchmark measures for the naive front end.

    ``kind`` is ``"value"`` or ``"pointsto"``.
    """

    def __init__(self, program: JProgram, kind: str = "value"):
        incremental = self._incremental = IncrementalExtractor(program, kind=kind)
        # The slices are the authoritative state: the base class's initial
        # extraction assembles them instead of extracting the program again.
        super().__init__(program, extractor=lambda _: incremental.facts())

    def _emit(self, label: str, method: str) -> Change:
        inserted, deleted = self._incremental.refresh(method)
        change = Change(
            label=label,
            insertions={pred: frozenset(rows) for pred, rows in inserted.items()},
            deletions={pred: frozenset(rows) for pred, rows in deleted.items()},
        )
        change.apply_to(self._facts)
        return change
