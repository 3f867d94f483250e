"""PositionalIndex: presentation-order rid sequence — including the
pinned-down move() semantics (regression for the dead-code adjustment)."""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.index.positional import PositionalIndex


def make(n: int = 5) -> PositionalIndex:
    return PositionalIndex(list(range(100, 100 + n)))


class TestMove:
    """``move(f, t)``: the rid ends up at position ``t`` of the resulting
    sequence (``t`` clamps to the end)."""

    def test_move_forward(self):
        index = make()  # [100, 101, 102, 103, 104]
        index.move(0, 2)
        assert index.to_list() == [101, 102, 100, 103, 104]
        assert index.rid_at(2) == 100

    def test_move_backward(self):
        index = make()
        index.move(3, 1)
        assert index.to_list() == [100, 103, 101, 102, 104]
        assert index.rid_at(1) == 103

    def test_move_to_end(self):
        index = make()
        index.move(0, 4)
        assert index.to_list() == [101, 102, 103, 104, 100]

    def test_move_past_end_clamps(self):
        index = make()
        index.move(1, 99)
        assert index.to_list() == [100, 102, 103, 104, 101]

    def test_move_to_same_position_is_identity(self):
        index = make()
        index.move(2, 2)
        assert index.to_list() == [100, 101, 102, 103, 104]

    def test_move_adjacent_forward(self):
        """The classic off-by-one trap the removed dead code gestured at:
        moving one slot forward must swap neighbours, not no-op."""
        index = make()
        index.move(1, 2)
        assert index.to_list() == [100, 102, 101, 103, 104]

    def test_move_keeps_tree_valid(self):
        index = make(50)
        for step in range(40):
            index.move(step % len(index), (step * 7) % len(index))
        index.validate()
        assert sorted(index.to_list()) == list(range(100, 150))


class TestBasics:
    def test_window_and_positions(self):
        index = make(10)
        assert index.window(3, 4) == [103, 104, 105, 106]
        index.insert_at(0, 999)
        assert index.rid_at(0) == 999
        assert index.position_of(999) == 0
        assert index.position_of(123456) is None


class PositionalIndexMachine(RuleBasedStateMachine):
    """Every mutator against a Python list: after each step the forward
    reads agree with the list, ``position_of`` is ``model.index`` for every
    live rid and ``None`` for every rid that was removed, and the tree's
    own invariants (sizes, heap order, parent links, rid → node map) hold."""

    def __init__(self):
        super().__init__()
        self.index = PositionalIndex()
        self.model = []
        self.dead = set()
        self.next_rid = 0
        self.calls = 0

    def fresh(self, count=1):
        """``count`` rids that are not live; every third call brings a
        removed one back, as the undo of a delete does."""
        self.calls += 1
        rids = [self.dead.pop()] if self.dead and count and self.calls % 3 == 0 else []
        rids += range(self.next_rid, self.next_rid + count - len(rids))
        self.next_rid += count
        return rids

    @rule(pos=st.integers(0, 10_000))
    def insert(self, pos):
        pos %= len(self.model) + 1
        (rid,) = self.fresh()
        self.index.insert_at(pos, rid)
        self.model.insert(pos, rid)

    @rule()
    def append(self):
        (rid,) = self.fresh()
        self.index.append(rid)
        self.model.append(rid)

    @rule(pos=st.integers(0, 10_000), count=st.integers(0, 9))
    def insert_slice(self, pos, count):
        pos %= len(self.model) + 1
        rids = self.fresh(count)
        self.index.insert_many_at(pos, rids)
        self.model[pos:pos] = rids

    @precondition(lambda self: self.model)
    @rule(pos=st.integers(0, 10_000))
    def delete(self, pos):
        pos %= len(self.model)
        rid = self.model.pop(pos)
        assert self.index.delete_at(pos) == rid
        self.dead.add(rid)

    @precondition(lambda self: self.model)
    @rule(pos=st.integers(0, 10_000), count=st.integers(0, 9))
    def delete_slice(self, pos, count):
        pos %= len(self.model)
        count = min(count, len(self.model) - pos)
        removed = self.model[pos : pos + count]
        assert self.index.delete_many_at(pos, count) == removed
        del self.model[pos : pos + count]
        self.dead.update(removed)

    @precondition(lambda self: self.model)
    @rule(from_pos=st.integers(0, 10_000), to_pos=st.integers(0, 10_000))
    def move(self, from_pos, to_pos):
        from_pos %= len(self.model)
        to_pos %= len(self.model)
        self.index.move(from_pos, to_pos)
        self.model.insert(to_pos, self.model.pop(from_pos))

    @rule(pos=st.integers(0, 10_000), count=st.integers(0, 12))
    def window(self, pos, count):
        pos %= len(self.model) + 1
        assert self.index.window(pos, count) == self.model[pos : pos + count]

    @invariant()
    def agrees_with_the_list(self):
        self.index.validate()
        assert self.index.to_list() == list(self.index) == self.model
        for position, rid in enumerate(self.model):
            assert self.index.rid_at(position) == rid
            assert self.index.position_of(rid) == position
        for rid in self.dead:
            assert self.index.position_of(rid) is None


PositionalIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestPositionalIndexMachine = PositionalIndexMachine.TestCase


@pytest.mark.parametrize("n", [1_000, 64_000])
def test_position_of_climbs_at_most_the_depth_of_the_tree(n):
    """The work bound: a lookup follows ≤ 4·log2(n) parent links — on a
    bulk-loaded index and on one grown by appends and middle inserts."""
    bound = 4 * math.log2(n)
    grown = PositionalIndex()
    for rid in range(n // 2):
        grown.append(rid)
    for rid in range(n // 2, n):
        grown.insert_at((rid * 7919) % len(grown), rid)
    for index in (PositionalIndex(list(range(n))), grown):
        assert len(index) == n
        for rid in range(0, n, max(1, n // 500)):
            before = index.counts.rank_steps
            assert index.rid_at(index.position_of(rid)) == rid
            assert index.counts.rank_steps - before <= bound
