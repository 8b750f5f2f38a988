"""Solver checkpointing: persist the initial analysis, resume in the IDE.

Section 7.1 argues initialization delays "are acceptable because they are
(i) one-off costs only and (ii) possibly can be precomputed".  This module
is the precomputation story: pickle a solved solver's state to disk (e.g.
in CI), then restore it instantly when the IDE opens and keep updating
incrementally.

Programs carry registered Python callables (functions, tests, aggregator
operations), which pickle cannot serialize in general (lambdas, closures).
Checkpointing therefore snapshots only the solver's *data* state and
re-attaches it to a freshly constructed solver for the same program — the
caller rebuilds the program (cheap) and the checkpoint supplies the
expensive fixpoint.

File format (v4): a fixed binary envelope followed by the pickled payload.

    MAGIC (9 bytes) | version (u16 BE) | sha256(payload) (32 bytes) | payload

The checksum makes truncation and bit-rot detectable *before* the pickle
is parsed (a truncated pickle can otherwise deserialize into silently
partial state), and the payload carries a program hash so a checkpoint
cannot be restored into a program it was not taken from.  All failure
modes raise :class:`CheckpointError`.  Writes go through a temp file and
an atomic rename, so a crash mid-write never leaves a half-written file
at the destination path.

A durable service session is such a file (its *base*) plus a log of the
batches applied since (:class:`CheckpointLog`, one ``crc32<tab>number<tab>
JSON`` line each); the base's payload names the last log record and router
``seq`` it includes (docs/SERVICE.md, "Supervision and crash recovery").
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Type

from ..config import SolverConfig
from ..datalog.errors import CheckpointError
from ..robustness import faults as _faults
from .base import Solver, declared_state, program_hash

__all__ = [
    "save_checkpoint",
    "dump_state",
    "write_checkpoint",
    "load_checkpoint",
    "load_base",
    "CheckpointLog",
    "read_log",
    "program_hash",
]

#: Envelope marker leading every checkpoint file.
MAGIC = b"REPROCKPT"
#: Checkpoint format version, the only one this build reads: the payload
#: records (docs/PROVENANCE.md) the annotation map; group state is pickled
#: without its combine callable.  Files written while a second storage
#: layout existed also carry ``backend`` and ``intern`` entries.
VERSION = 4
_HEADER = struct.Struct(f">{len(MAGIC)}sH32s")

def dump_state(solver: Solver, covers: tuple[int, int] | None = None) -> bytes:
    """Pickle a solved solver's declared state.

    This half reads the solver, so a caller that shares it with an updating
    thread holds its lock here; :func:`write_checkpoint` needs none.
    ``covers``: the last ``(log record, router seq)`` this state includes,
    when the file is to be the base of a session's log.
    """
    if not solver._solved:
        raise CheckpointError("cannot checkpoint an unsolved solver")
    payload = {
        "solver": type(solver).__name__,
        "program": solver._program_hash,
        # Data only — no compiled plans, no registered callables: exactly
        # what the engine and its component states declare in ``STATE``.
        "attrs": declared_state(solver),
        "components": [declared_state(state) for state in solver._states] or None,
        "provenance": (
            solver.provenance.dump() if solver.provenance is not None else None
        ),
    }
    if covers is not None:
        payload["log_record"], payload["seq"] = covers
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def write_checkpoint(body: bytes, path: str | Path) -> int:
    """Checksum ``body``, wrap it in the envelope and put it at ``path``;
    returns the byte size written.

    The file is written to a sibling temp path and renamed into place, so
    an interrupted save leaves any previous checkpoint at ``path`` intact.
    """
    header = _HEADER.pack(MAGIC, VERSION, hashlib.sha256(body).digest())
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        if _faults.ACTIVE is not None:
            _faults.fire("checkpoint.write")
        with open(tmp, "wb") as handle:
            handle.write(header)
            handle.write(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return len(header) + len(body)


def save_checkpoint(solver: Solver, path: str | Path) -> int:
    """Serialize a solved solver's state to ``path``; returns the byte size
    written (:func:`dump_state` then :func:`write_checkpoint`)."""
    return write_checkpoint(dump_state(solver), path)


def _read_body(path: Path) -> bytes:
    """Validate the envelope; return the checksummed payload bytes."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(data) < _HEADER.size or not data.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a repro checkpoint")
    _, version, digest = _HEADER.unpack_from(data)
    if version != VERSION:
        raise CheckpointError(
            f"{path} has checkpoint format version {version}, "
            f"but this build reads version {VERSION}; re-run the initial "
            f"analysis to regenerate it"
        )
    body = data[_HEADER.size:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(
            f"{path} failed its payload checksum — the file is truncated "
            f"or corrupt; re-run the initial analysis to regenerate it"
        )
    return body


def load_checkpoint(
    solver_cls: Type[Solver], program, path: str | Path, metrics=None, config=None
) -> Solver:
    """:func:`load_base` for a caller that keeps no log."""
    return load_base(solver_cls, program, path, metrics, config)[0]


def load_base(
    solver_cls: Type[Solver], program, path: str | Path, metrics=None, config=None
) -> tuple[Solver, int, int]:
    """Reconstruct a solved solver from ``program`` plus a checkpoint;
    returns it with the log record and router ``seq`` the file covers
    (``0, 0`` for one written without :func:`dump_state`'s ``covers``).

    ``program`` must be (rule-for-rule) the program the checkpoint was taken
    from; registered callables come from it, the fixpoint state from disk.
    Any mismatch — engine class, program hash, format version, corrupt or
    truncated file — raises :class:`CheckpointError`.  ``metrics``, when
    given, is attached to the restored solver (service sessions keep one
    collector alive across a restore).  The solver is built with ``config``
    (a :class:`SolverConfig`; None: the environment's), with provenance
    switched on if the file carries annotations — their capture cost is
    already paid, and explain works immediately.
    """
    path = Path(path)
    body = _read_body(path)
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # checksummed, so this indicates a format bug
        raise CheckpointError(
            f"{path} payload failed to deserialize: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "solver" not in payload:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    if payload["solver"] != solver_cls.__name__:
        raise CheckpointError(
            f"checkpoint was taken from {payload['solver']}, "
            f"not {solver_cls.__name__}"
        )
    if payload.get("backend", "object") != "object":
        raise CheckpointError(
            f"{path} was taken under the {payload['backend']!r} storage "
            f"backend, which this build no longer has; re-run the initial "
            f"analysis"
        )
    config = config or SolverConfig.from_env()
    annotations = payload["provenance"]
    if annotations is not None:
        config = replace(config, provenance=True)
    solver = solver_cls(program, metrics=metrics, config=config)
    if payload["program"] != solver._program_hash:
        raise CheckpointError(
            "checkpoint does not match the program (rules differ); "
            "re-run the initial analysis"
        )
    for name, value in payload["attrs"].items():
        setattr(solver, name, value)
    # Fact-only predicates (ones no rule mentions) get their arity
    # registered by the first ``add_facts`` row; restored facts bypass
    # ``add_facts``, so redo that registration here — otherwise the next
    # solve meets an "unknown predicate" error at its relation store.
    for pred, rows in solver._facts.items():
        if pred not in solver.arities:
            for row in rows:
                solver.arities[pred] = len(row)
                break
    components = payload["components"] or []
    if len(solver._states) != len(components):
        raise CheckpointError("checkpoint component count mismatch")
    for state, entry in zip(solver._states, components):
        state.adopt(entry)
    if annotations is not None:
        solver.provenance.restore(annotations)
    return solver, payload.get("log_record", 0), payload.get("seq", 0)


class CheckpointLog:
    """The append side of a session's batch log, positioned after its last
    valid record: the first ``size`` bytes are kept (:func:`read_log`
    reports both numbers; the defaults start an empty log).

    Writes are unbuffered, so a record is with the OS when :meth:`append`
    returns; there is no ``fsync``: the contract is process death, not
    power loss.  Not thread-safe: the session holds its solver lock."""

    def __init__(self, path: str | Path, records: int = 0, size: int = 0):
        self.path = Path(path)
        #: Number of the last record appended; :meth:`trim` does not reset it.
        self.records = records
        self.bytes = size
        #: An append failed: the file may end in a torn record and the
        #: owner's state is ahead of it, until a base covers the gap.
        self.broken = False
        self._handle = open(self.path, "ab", buffering=0)
        self._handle.truncate(size)

    def append(self, record: dict) -> None:
        """Write ``record`` as the next numbered, checksummed line."""
        try:
            text = f"{self.records + 1}\t{json.dumps(record, separators=(',', ':'))}"
            line = f"{zlib.crc32(text.encode()):08x}\t{text}\n".encode()
            half = 0
            if _faults.ACTIVE is not None:
                # An injected failure lands mid-record, as a full disk would.
                half = len(line) // 2
                self._handle.write(line[:half])
                _faults.fire("log.append")
            self._handle.write(line[half:])
        except BaseException:
            self.broken = True
            self.bytes = self._handle.tell()
            raise
        self.records += 1
        self.bytes += len(line)

    def trim(self, offset: int) -> None:
        """Drop the first ``offset`` bytes, records a base now covers.  The
        tail goes to a temp file renamed over the log, so a crash anywhere
        leaves a log the base still matches."""
        with open(self.path, "rb") as old:
            old.seek(offset)
            tail = old.read()
        tmp = self.path.with_name(self.path.name + ".tmp")
        handle = open(tmp, "ab", buffering=0)
        try:
            handle.write(tail)
            os.replace(tmp, self.path)
        except BaseException:
            handle.close()
            tmp.unlink(missing_ok=True)
            raise
        self._handle.close()
        self._handle, self.bytes = handle, len(tail)

    def close(self) -> None:
        self._handle.close()


def read_log(path: str | Path, after: int = 0) -> tuple[list[dict], int, int]:
    """Validate a batch log; returns the records numbered above ``after``
    (what a base covering ``after`` has yet to replay), the number of the
    last valid record and the byte length of the valid prefix.

    A final record without its newline was torn by the crash and is dropped
    (its batch was never acknowledged); a missing file is an empty log.
    A failed checksum, a skipped number or a gap between ``after`` and the
    first record raises :class:`CheckpointError`."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], after, 0
    *lines, torn = data.split(b"\n")
    records: list[dict] = []
    last = None
    for line in lines:
        try:
            digest, text = line.decode().split("\t", 1)
            number, body = text.split("\t", 1)
            if int(digest, 16) != zlib.crc32(text.encode()):
                raise ValueError("checksum mismatch")
            if last is not None and int(number) != last + 1:
                raise ValueError(f"numbered {number}")
            record = json.loads(body)
            last = int(number)
            if last > after:
                records.append(record)
        except ValueError as exc:
            raise CheckpointError(
                f"{path}: the line after record {last} is corrupt ({exc}); "
                f"the log cannot be replayed"
            ) from exc
    if lines and last - len(lines) >= after + 1:
        raise CheckpointError(
            f"{path} starts at record {last - len(lines) + 1} but its base "
            f"covers only {after}; the log cannot be replayed"
        )
    return records, max(after, last or 0), len(data) - len(torn)
