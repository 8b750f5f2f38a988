"""Base plus log recovers the live session, wherever the base was taken.

A durable session is a base file and an append-only log of the batches
applied since (docs/SERVICE.md, "Supervision and crash recovery").  The
base may have been written after any record *k* of the log — the rebase
rule only decides when — and a crash may find any such pair on disk, the
trim of covered records not yet done.  For generated edit sequences, a
session recovered from ``base@k`` and the whole log must equal the live
one, digest for digest, at every split point *k*, the log alone (no base
yet) included.  The live session is the oracle.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses import constant_propagation
from repro.corpus import load_subject
from repro.engines.checkpoint import dump_state, read_log, write_checkpoint
from repro.service import Session, SessionConfig

#: The literals the generated edits retype, delete and bring back.
STATEMENTS = sorted(constant_propagation(load_subject("minijavac")).facts["assignlit"])[:4]

#: One edit: per touched statement, the literal it now assigns (None: the
#: statement is deleted).  Two edits may touch the same statement, an edit
#: may retype to the value already there, and a batch may cancel out.
EDITS = st.lists(
    st.dictionaries(
        st.integers(0, len(STATEMENTS) - 1),
        st.one_of(st.none(), st.integers(0, 3)),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=6,
)


def open_session(**config) -> Session:
    return Session(
        "prop",
        SessionConfig(
            "constprop", "minijavac", flush_size=10_000, flush_latency=600.0,
            **config,
        ),
    )


@given(EDITS)
@settings(max_examples=10, deadline=None)
def test_base_at_k_plus_log_recovers_the_live_digest(edits):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        live = open_session(checkpoint_path=str(scratch / "live.ckpt"))
        try:
            # Keep every record: no rebase trims this log under the test.
            live._base_bytes = float("inf")
            current = list(STATEMENTS)
            bases = {}
            for seq, edit in enumerate(edits, start=1):
                insertions, deletions = [], []
                for index, literal in edit.items():
                    if current[index] is not None:
                        deletions.append(current[index])
                    current[index] = (
                        None if literal is None
                        else (*STATEMENTS[index][:2], literal)
                    )
                    if current[index] is not None:
                        insertions.append(current[index])
                live.update({"assignlit": insertions}, {"assignlit": deletions}, seq=seq)
                assert live.flush()["ok"]
                # The base a rebase right now would write.
                stats = live.stats()
                record = stats["checkpoint"]["log_records"]
                bases[record] = scratch / f"base{record}.ckpt"
                covers = (record, stats["applied_seq"])
                write_checkpoint(
                    dump_state(live.solver.solver, covers=covers), bases[record]
                )
            digest, applied_seq = live.snapshot.digest(), live.stats()["applied_seq"]
            records = read_log(scratch / "live.ckpt.log")[1]
            assert set(bases) <= set(range(records + 1))
        finally:
            live.close()

        for record in [None, *sorted(bases)]:
            spool = scratch / f"crash{record}.ckpt"
            shutil.copyfile(scratch / "live.ckpt.log", f"{spool}.log")
            if record is not None:
                shutil.copyfile(bases[record], spool)
            recovered = open_session(restore_from=str(spool))
            try:
                assert recovered.snapshot.digest() == digest, record
                stats = recovered.stats()
                # An edit that cancelled out applied, and logged, nothing.
                assert stats["applied_seq"] == applied_seq
                # Replay is one coalesced batch at most, none when the
                # base already covers the whole log.
                applied = stats["metrics"]["service"]["batches_applied"]
                assert applied <= (record != records)
            finally:
                recovered.close()
