"""Unit and property tests for the sequenced stream (``repro.prototype.seqlog``).

``SeqLog`` is the sender's retransmit log and ``SeqReceiver`` the
receiver's floor plus its held records; the gateway cohort, the
write-back acks and cross-cluster replication all run on these two.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.prototype.seqlog import SeqLog, SeqReceiver


def _log(base, count):
    log = SeqLog()
    log.base = base
    log.entries = [f"r{seq}" for seq in range(base + 1, base + count + 1)]
    return log


class TestSeqLog:
    def test_last_counts_truncated_and_live_entries(self):
        assert SeqLog().last == 0
        assert _log(5, 3).last == 8

    def test_after_below_base_returns_every_entry(self):
        assert _log(5, 3).after(2) == ["r6", "r7", "r8"]

    def test_after_base_returns_every_entry(self):
        assert _log(5, 3).after(5) == ["r6", "r7", "r8"]

    def test_after_inside_returns_the_suffix(self):
        assert _log(5, 3).after(6) == ["r7", "r8"]

    def test_after_last_or_beyond_is_empty(self):
        log = _log(5, 3)
        assert log.after(8) == []
        assert log.after(20) == []

    def test_truncate_returns_dropped_count(self):
        log = _log(5, 3)
        assert log.truncate(7) == 2
        assert log.base == 7
        assert log.entries == ["r8"]
        assert log.truncate(7) == 0
        assert log.truncate(3) == 0  # below base: nothing to drop
        assert log.base == 7

    def test_truncate_past_last_never_moves_last(self):
        log = _log(5, 3)
        assert log.truncate(50) == 3
        assert log.last == 8 and log.base == 8
        assert log.entries == []


class TestSeqReceiver:
    def test_in_order_offer_is_due_at_once(self):
        stream = SeqReceiver()
        assert stream.offer(1, "a") == ["a"]
        assert stream.offer(2, "b") == ["b"]
        assert stream.floor == 2

    def test_duplicate_at_or_below_floor(self):
        stream = SeqReceiver(floor=3)
        assert stream.offer(3, "x") is None
        assert stream.offer(1, "x") is None
        assert stream.floor == 3

    def test_duplicate_while_held(self):
        stream = SeqReceiver()
        assert stream.offer(3, "c") == []
        assert stream.offer(3, "c") is None
        assert stream.held == {3: "c"}

    def test_gap_fill_drains_the_held_run(self):
        stream = SeqReceiver()
        assert stream.offer(3, "c") == []
        assert stream.offer(2, "b") == []
        assert stream.offer(5, "e") == []
        assert stream.offer(1, "a") == ["a", "b", "c"]
        assert stream.floor == 3
        assert stream.held == {5: "e"}

    def test_skip_to_returns_the_held_run(self):
        stream = SeqReceiver()
        for seq in (2, 6, 7, 9):
            stream.offer(seq, f"r{seq}")
        assert stream.skip_to(5) == ["r6", "r7"]
        assert stream.floor == 7
        assert stream.held == {9: "r9"}

    def test_skip_to_at_or_below_floor_changes_nothing(self):
        stream = SeqReceiver(floor=4)
        stream.offer(6, "r6")
        assert stream.skip_to(2) == []
        assert stream.floor == 4
        assert stream.held == {6: "r6"}


@st.composite
def _schedules(draw):
    """Batches of seqs in ``1..n`` (any drops, duplicates and reorders),
    then one in-order redelivery of the whole stream."""
    n = draw(st.integers(min_value=1, max_value=30))
    seqs = st.integers(min_value=1, max_value=n)
    batches = draw(st.lists(st.lists(seqs, max_size=8), max_size=10))
    return n, batches + [list(range(1, n + 1))]


@given(_schedules())
def test_long_lived_receiver_yields_every_seq_once_in_order(schedule):
    n, batches = schedule
    stream = SeqReceiver()
    yielded = []
    for batch in batches:
        for seq in batch:
            due = stream.offer(seq, seq)
            if due is not None:
                yielded.extend(due)
    assert yielded == list(range(1, n + 1))
    assert stream.floor == n and stream.held == {}


@given(_schedules())
def test_per_batch_receiver_never_yields_past_a_gap(schedule):
    n, batches = schedule
    floor = 0
    yielded = []
    for batch in batches:
        stream = SeqReceiver(floor)
        applied = []
        for seq in batch:
            due = stream.offer(seq, seq)
            if due is None:
                continue
            if not due:
                break  # a gap: the receiver is dropped with the batch
            applied.extend(due)
        assert applied == list(range(floor + 1, floor + 1 + len(applied)))
        floor += len(applied)
        yielded.extend(applied)
    assert yielded == list(range(1, n + 1))
