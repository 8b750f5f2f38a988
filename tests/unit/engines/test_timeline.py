"""Unit tests for differential count timelines (Figure 5)."""

from repro.engines.laddder import NEVER, Timeline


def tl(*entries):
    t = Timeline()
    for ts, d in entries:
        t.add(ts, d)
    return t


class TestBasics:
    def test_empty(self):
        t = Timeline()
        assert not t
        assert t.first() == NEVER
        assert t.total() == 0
        assert not t.exists_at(0)

    def test_single_entry(self):
        t = tl((7, 2))
        assert t.first() == 7
        assert t.cumulative(6) == 0
        assert t.cumulative(7) == 2
        assert t.total() == 2

    def test_merge_same_timestamp(self):
        t = tl((5, 1), (5, 2))
        assert list(t.entries()) == [(5, 3)]

    def test_zero_delta_ignored(self):
        t = tl((5, 0))
        assert not t

    def test_cancellation_removes_entry(self):
        t = tl((5, 1), (5, -1))
        assert not t
        assert t.first() == NEVER

    def test_entries_sorted(self):
        t = tl((9, 1), (3, 1), (6, 1))
        assert [ts for ts, _ in t.entries()] == [3, 6, 9]

    def test_cumulative_fast_path_matches_prefix_sum(self):
        # The single-entry branch of cumulative() must agree with a prefix
        # sum over entries() at every probe, as must the multi-entry path.
        for t in (tl((7, 2)), tl((7, 2), (10, 1)), tl((3, -1), (5, 2), (9, 1))):
            entries = list(t.entries())
            for probe in range(0, 13):
                expected = sum(d for ts, d in entries if ts <= probe)
                assert t.cumulative(probe) == expected, (entries, probe)


class TestFigure5:
    """The Reach(proc) timelines from Figure 5."""

    def test_initial_analysis_epoch0(self):
        # Two derivations at 7, one more at 10.
        t = tl((7, 2), (10, 1))
        assert t.cumulative(7) == 2
        assert t.cumulative(10) == 3
        assert t.first() == 7
        assert t.existence_changes() == [(7, 1)]
        assert t.is_settled()

    def test_after_deletion_epoch1(self):
        # The deletion of s2.proc() removes one derivation at 7.
        t = tl((7, 2), (10, 1))
        t.add(7, -1)
        assert t.cumulative(7) == 1
        assert t.first() == 7  # existence unchanged: support count absorbed it
        assert t.existence_changes() == [(7, 1)]

    def test_existence_diff_on_full_deletion(self):
        t = tl((7, 1))
        t.add(7, -1)
        assert t.existence_changes() == []
        assert t.first() == NEVER


class TestTransientStates:
    def test_mixed_sign_first(self):
        # Transient state: -1 at 3 pending a +1 at 5 being processed.
        t = tl((3, -1), (5, 2))
        assert not t.is_settled()
        assert t.first() == 5

    def test_existence_changes_with_gap(self):
        t = tl((2, 1), (4, -1), (9, 1))
        assert t.existence_changes() == [(2, 1), (4, -1), (9, 1)]
        assert t.exists_at(3)
        assert not t.exists_at(5)
        assert t.exists_at(9)

    def test_leading_negative_run(self):
        # A retraction queued before any support: nothing ever exists until
        # the cumulative count crosses zero.
        t = tl((1, -2), (3, 1), (6, 2))
        assert t.first() == 6
        assert t.existence_changes() == [(6, 1)]
        assert not t.exists_at(3)

    def test_cancel_to_zero_mid_timeline(self):
        t = tl((2, 1), (5, -1), (5, 1), (8, -1))
        # The two entries at 5 merged away; existence toggles at 2 and 8.
        assert list(t.entries()) == [(2, 1), (8, -1)]
        assert t.first() == 2
        assert t.existence_changes() == [(2, 1), (8, -1)]

    def test_negative_tail_ends_existence(self):
        t = tl((1, 2), (4, -2))
        assert t.first() == 1
        assert t.existence_changes() == [(1, 1), (4, -1)]
        assert t.total() == 0
        assert not t.is_settled()

    def test_repeated_toggle(self):
        t = tl((1, 1), (2, -1), (3, 1), (4, -1), (5, 1))
        assert t.first() == 1
        assert t.existence_changes() == [
            (1, 1), (2, -1), (3, 1), (4, -1), (5, 1),
        ]

    def test_cumulative_prefix_sums_mixed_sign(self):
        t = tl((1, 3), (4, -2), (7, 5))
        assert t.cumulative(0) == 0
        assert t.cumulative(1) == 3
        assert t.cumulative(4) == 1
        assert t.cumulative(6) == 1
        assert t.cumulative(7) == 6
        assert t.cumulative(100) == t.total() == 6

    def test_copy_is_independent(self):
        t = tl((1, 1))
        c = t.copy()
        c.add(2, 1)
        assert len(t) == 1 and len(c) == 2

    def test_state_size(self):
        assert tl((1, 1), (2, 1)).state_size() == 2
